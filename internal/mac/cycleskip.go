package mac

import "repro/internal/sim"

// Cycle fast-forward for SlotSim.Run.
//
// Every period is a power of two, so the transition function of a slot
// depends on the absolute slot index only modulo the hyperperiod H (the
// largest period): the tag transmit rule masks the counter with
// Period-1, and the reader judges offsets and expected slots modulo a
// period. Once a fault-free network settles, the whole simulator state
// therefore repeats every H slots. Run proves that repetition by
// comparing the live state at a hyperperiod boundary with a mark taken
// one hyperperiod earlier, and then advances whole cycles by adding the
// per-cycle deltas of the growing counters instead of stepping them.
//
// The comparison covers every field a transition reads: per tag the
// whole TagProtocol value (state, offset, counter mod H, NACK count,
// pending transmit flag, newcomer gate, NackThreshold,
// DisableEmptyGate) and the tag's RNG words; the simulator's RNG words
// and pending feedback; the reader's belief tables, eviction state,
// knobs and slot mod H. The RNG words are the proof's keystone: equal
// words mean no draw happened in the cycle (an xoshiro256** stream
// never revisits a state that soon), so the next cycle sees the same
// inputs, takes the same branches and replays the previous one exactly
// — counts, fingerprints and RNG streams stay bit-identical to a plain
// Step loop.

// cycleMark is the simulator state captured at a hyperperiod boundary
// plus, once a repetition is proven, the per-cycle deltas of every
// counter that grows. Its buffers are sized once per simulator, at the
// first boundary where a skip is eligible: configurations that never
// get there never pay for them, and neither does snapshot
// construction. Reset keeps them, so pooled clones take, compare and
// skip without allocating.
type cycleMark struct {
	valid bool
	// proven: the live state matched the state one hyperperiod
	// earlier, and the d* fields hold that cycle's deltas.
	proven bool
	slot   int // SlotsRun when the mark was taken

	rng sim.Rand
	fb  Feedback

	truthNonEmpty, truthCollisions int
	winNonEmpty, winCollision      int
	readerSlot                     int

	evictTID          int
	evictNacks        int
	nackThreshold     int
	disableFutureVeto bool

	tags   []tagMark    // nil until first sized
	reader []readerMark // per tid, like the reader's dense tables

	dTruthNonEmpty, dTruthCollisions int
	dWinNonEmpty, dWinCollision      int
	dReaderSlot                      int

	// Scratch for WindowStats.fastForward: the ring's newest cycle.
	ringNonEmpty, ringCollide []bool
}

type tagMark struct {
	// proto is the protocol value with its counter reduced mod H, so
	// struct equality is the comparison; counter keeps the full value.
	proto             TagProtocol
	rng               sim.Rand
	counter           int
	txCount, ackCount int

	dCounter, dTx, dAck int
}

type readerMark struct {
	settled   Assignment
	settledOK bool
	misses    int
	appeared  bool
}

// fastForward runs at a hyperperiod boundary with n slots left in the
// Run call. It returns how many slots it skipped: a whole number of
// hyperperiods, 0 unless the repetition is proven.
//
//alloc:hot called at every hyperperiod boundary of Run; the mark is sized once per simulator, then reused
func (s *SlotSim) fastForward(n int) int {
	m := &s.mark
	if !s.skipEligible() {
		m.valid = false
		return 0
	}
	if m.tags == nil {
		m.tags = make([]tagMark, len(s.tags))
		m.reader = make([]readerMark, len(s.reader.settled))
		m.ringNonEmpty, m.ringCollide = make([]bool, s.hyper), make([]bool, s.hyper)
	}
	if !m.valid || !s.matchesMark() {
		m.proven = false
		s.takeMark()
		return 0
	}
	switch s.SlotsRun - m.slot {
	case s.hyper:
		s.takeCycleDeltas()
		m.proven = true
	case 0:
		// A mark taken at this very boundary: still proven if it was
		// proven when taken (the previous Run call ended here).
	default:
		// Boundaries passed outside Run (plain Step calls): the gap is
		// not one cycle, so start a fresh proof here.
		m.proven = false
		s.takeMark()
		return 0
	}
	if !m.proven {
		return 0
	}
	k := n / s.hyper
	s.skipCycles(k)
	s.takeMark()
	return k * s.hyper
}

// skipEligible reports whether the configuration and the live state
// admit a cycle skip at all. Fault sources and tracers observe every
// slot, joins and brownouts depend on the absolute slot, and the
// convergence detector's first-convergence slot is only extrapolated
// once it is fixed.
//
//alloc:hot eligibility test at every hyperperiod boundary of Run
func (s *SlotSim) skipEligible() bool {
	if s.cfg.Faults != nil || s.cfg.Trace.Enabled() || s.reader.Trace.Enabled() ||
		!s.Convergence.Converged() || len(s.Window.nonEmpty) != s.Window.Window {
		return false
	}
	for _, t := range s.tags {
		if s.SlotsRun < t.joinSlot || t.down {
			return false
		}
	}
	return true
}

// takeMark copies the live state into the mark, keeping the proof flag
// and the per-cycle deltas.
//
//alloc:hot copies the live state into preallocated mark buffers
func (s *SlotSim) takeMark() {
	m := &s.mark
	r := s.reader
	m.valid = true
	m.slot = s.SlotsRun
	m.rng = *s.rng
	m.fb = s.fb
	m.truthNonEmpty, m.truthCollisions = s.TruthNonEmpty, s.TruthCollisions
	m.winNonEmpty, m.winCollision = s.Window.totalNonEmpty, s.Window.totalCollision
	m.readerSlot = r.slot
	for tid := range m.reader {
		m.reader[tid] = readerMark{r.settled[tid], r.settledOK[tid], r.misses[tid], r.appeared[tid]}
	}
	m.evictTID, m.evictNacks = r.evictTID, r.evictNacks
	m.nackThreshold, m.disableFutureVeto = r.NackThreshold, r.DisableFutureVeto
	for i, t := range s.tags {
		tm := &m.tags[i]
		tm.proto = *t.proto
		tm.proto.counter &= s.hyper - 1
		tm.rng = *t.proto.rng
		tm.counter = t.proto.counter
		tm.txCount, tm.ackCount = t.txCount, t.ackCount
	}
}

// matchesMark compares every transition-relevant field with the mark;
// absolute slot counters are compared modulo the hyperperiod.
//
//alloc:hot state comparison at every hyperperiod boundary of Run
func (s *SlotSim) matchesMark() bool {
	m := &s.mark
	r := s.reader
	mod := s.hyper - 1
	if *s.rng != m.rng || s.fb != m.fb || (r.slot-m.readerSlot)&mod != 0 ||
		r.evictTID != m.evictTID || r.evictNacks != m.evictNacks ||
		r.NackThreshold != m.nackThreshold || r.DisableFutureVeto != m.disableFutureVeto ||
		len(r.appearedHi) != 0 {
		return false
	}
	for i, t := range s.tags {
		tm := &m.tags[i]
		p := *t.proto
		p.counter &= mod
		if p != tm.proto || *t.proto.rng != tm.rng {
			return false
		}
	}
	for tid, rm := range m.reader {
		if rm != (readerMark{r.settled[tid], r.settledOK[tid], r.misses[tid], r.appeared[tid]}) {
			return false
		}
	}
	return true
}

// takeCycleDeltas records how much each growing counter advanced over
// the proven cycle (live state minus the mark one hyperperiod back).
//
//alloc:hot per-proof delta capture into the mark
func (s *SlotSim) takeCycleDeltas() {
	m := &s.mark
	m.dTruthNonEmpty = s.TruthNonEmpty - m.truthNonEmpty
	m.dTruthCollisions = s.TruthCollisions - m.truthCollisions
	m.dWinNonEmpty = s.Window.totalNonEmpty - m.winNonEmpty
	m.dWinCollision = s.Window.totalCollision - m.winCollision
	m.dReaderSlot = s.reader.slot - m.readerSlot
	for i, t := range s.tags {
		tm := &m.tags[i]
		tm.dCounter = t.proto.counter - tm.counter
		tm.dTx = t.txCount - tm.txCount
		tm.dAck = t.ackCount - tm.ackCount
	}
}

// skipCycles advances the simulator by k proven hyperperiods: exactly
// the state k*H plain Steps would reach.
//
//alloc:hot whole-cycle skip: integer arithmetic and an in-place ring rewrite
func (s *SlotSim) skipCycles(k int) {
	if k == 0 {
		return
	}
	m := &s.mark
	d := k * s.hyper
	s.SlotsRun += d
	s.TruthNonEmpty += k * m.dTruthNonEmpty
	s.TruthCollisions += k * m.dTruthCollisions
	s.Window.fastForward(d, s.hyper, k*m.dWinNonEmpty, k*m.dWinCollision, m.ringNonEmpty, m.ringCollide)
	s.Convergence.fastForward(d, m.dTruthCollisions == 0)
	s.reader.slot += k * m.dReaderSlot
	for i, t := range s.tags {
		tm := &m.tags[i]
		t.proto.counter += k * tm.dCounter
		t.txCount += k * tm.dTx
		t.ackCount += k * tm.dAck
		if tm.dTx > 0 {
			// The last transmission sits at the same position in the
			// final cycle as in the one just proven.
			t.lastTxSlot += d
		}
	}
}
