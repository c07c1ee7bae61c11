package mac

// ConvergenceDetector implements the paper's first-convergence-time
// metric (Sec. 6.4): the number of slots until the reader has seen 32
// consecutive non-collision slots after a RESET.
type ConvergenceDetector struct {
	// Window is the required clean-slot run (32 in the paper).
	Window int

	slots     int
	cleanRun  int
	converged bool
	at        int
}

// NewConvergenceDetector returns a detector with the paper's window.
func NewConvergenceDetector() *ConvergenceDetector {
	return &ConvergenceDetector{Window: 32}
}

// Observe ingests one slot outcome and returns true the first time the
// clean-run criterion is met.
func (c *ConvergenceDetector) Observe(collision bool) bool {
	c.slots++
	if collision {
		c.cleanRun = 0
		return false
	}
	c.cleanRun++
	if !c.converged && c.cleanRun >= c.Window {
		c.converged = true
		c.at = c.slots
		return true
	}
	return false
}

// Reset rewinds the detector to its freshly constructed state (keeping
// the configured window) without allocating.
func (c *ConvergenceDetector) Reset() {
	c.slots = 0
	c.cleanRun = 0
	c.converged = false
	c.at = 0
}

// fastForward advances the detector by d slots of a proven cycle;
// clean reports that the cycle held no collision. A cycle with a
// collision ends every repetition on the same clean run, so cleanRun
// only grows when the cycle is clean.
//
//alloc:hot whole-cycle skip of SlotSim.Run
func (c *ConvergenceDetector) fastForward(d int, clean bool) {
	c.slots += d
	if clean {
		c.cleanRun += d
	}
}

// Converged reports whether the criterion was met.
func (c *ConvergenceDetector) Converged() bool { return c.converged }

// ConvergenceSlot returns the slot count at which convergence was
// declared (0 if not yet).
func (c *ConvergenceDetector) ConvergenceSlot() int { return c.at }

// WindowStats tracks the Fig. 16 long-running metrics over a sliding
// window: the non-empty ratio (slots with at least one transmission,
// collisions included) and the collision ratio (slots with more than
// one transmitter).
type WindowStats struct {
	// Window is the sliding-window length (32 slots in the paper).
	Window int

	nonEmpty []bool
	collide  []bool
	pos      int
	filled   int

	totalSlots     int
	totalNonEmpty  int
	totalCollision int
}

// NewWindowStats returns stats with the paper's 32-slot window.
func NewWindowStats() *WindowStats {
	return &WindowStats{Window: 32, nonEmpty: make([]bool, 32), collide: make([]bool, 32)}
}

// Observe ingests one slot.
func (w *WindowStats) Observe(nonEmpty, collision bool) {
	if len(w.nonEmpty) != w.Window {
		w.nonEmpty = make([]bool, w.Window)
		w.collide = make([]bool, w.Window)
		w.pos, w.filled = 0, 0
	}
	w.nonEmpty[w.pos] = nonEmpty
	w.collide[w.pos] = collision
	w.pos = (w.pos + 1) % w.Window
	if w.filled < w.Window {
		w.filled++
	}
	w.totalSlots++
	if nonEmpty {
		w.totalNonEmpty++
	}
	if collision {
		w.totalCollision++
	}
}

// Reset rewinds the stats to empty (keeping the configured window and
// its ring buffers) without allocating.
func (w *WindowStats) Reset() {
	for i := range w.nonEmpty {
		w.nonEmpty[i] = false
		w.collide[i] = false
	}
	w.pos = 0
	w.filled = 0
	w.totalSlots = 0
	w.totalNonEmpty = 0
	w.totalCollision = 0
}

// fastForward advances the stats by d slots, a whole number of cycles
// of an observation sequence proven periodic with the given cycle
// length, whose latest cycle is the newest entries of the ring. Slots
// that stay in the window keep their entries; every entry the skipped
// slots overwrite takes the value of the same cycle position in the
// latest cycle, read into the caller's scratch (at least
// min(cycle, Window) long) first. The ring, cursor and totals end up
// exactly as d Observe calls would leave them.
//
//alloc:hot whole-cycle skip of SlotSim.Run; scratch is caller-provided
func (w *WindowStats) fastForward(d, cycle, dNonEmpty, dCollision int, nonEmpty, collide []bool) {
	n := w.Window
	for j := 0; j < min(cycle, n); j++ {
		p := (w.pos - 1 - j + n) % n
		nonEmpty[j], collide[j] = w.nonEmpty[p], w.collide[p]
	}
	w.pos = (w.pos + d) % n
	w.filled = min(w.filled+d, n)
	for j := 0; j < min(d, w.filled); j++ {
		p := (w.pos - 1 - j + n) % n
		w.nonEmpty[p], w.collide[p] = nonEmpty[j%cycle], collide[j%cycle]
	}
	w.totalSlots += d
	w.totalNonEmpty += dNonEmpty
	w.totalCollision += dCollision
}

// NonEmptyRatio returns the windowed non-empty ratio.
func (w *WindowStats) NonEmptyRatio() float64 {
	if w.filled == 0 {
		return 0
	}
	n := 0
	for i := 0; i < w.filled; i++ {
		if w.nonEmpty[i] {
			n++
		}
	}
	return float64(n) / float64(w.filled)
}

// CollisionRatio returns the windowed collision ratio.
func (w *WindowStats) CollisionRatio() float64 {
	if w.filled == 0 {
		return 0
	}
	n := 0
	for i := 0; i < w.filled; i++ {
		if w.collide[i] {
			n++
		}
	}
	return float64(n) / float64(w.filled)
}

// AverageNonEmptyRatio returns the whole-run average (the 81.2% of
// Sec. 6.4).
func (w *WindowStats) AverageNonEmptyRatio() float64 {
	if w.totalSlots == 0 {
		return 0
	}
	return float64(w.totalNonEmpty) / float64(w.totalSlots)
}

// AverageCollisionRatio returns the whole-run average (the 0.056 of
// Sec. 6.4).
func (w *WindowStats) AverageCollisionRatio() float64 {
	if w.totalSlots == 0 {
		return 0
	}
	return float64(w.totalCollision) / float64(w.totalSlots)
}

// Slots returns the number of observed slots.
func (w *WindowStats) Slots() int { return w.totalSlots }
