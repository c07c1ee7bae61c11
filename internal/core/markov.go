// Package core implements the paper's formal convergence model
// (Appendix C): the distributed slot allocation as an absorbing Markov
// chain. Each network state captures every tag's protocol state
// (MIGRATE/SETTLE), slot offset and NACK counter, plus the global slot
// phase; transitions follow the Fig. 7 state machine with uniform
// random offset re-selection. The package enumerates the exact chain
// for small networks and verifies the paper's three claims
// mechanically:
//
//	Lemma 1/2: states with all tags settled and conflict-free are
//	           absorbing;
//	Lemma 3:   every state reaches an absorbing state with positive
//	           probability (hence, by finiteness, with probability 1);
//	Theorem 4: the chain is absorbing; expected absorption times are
//	           computable by solving (I-Q)t = 1.
//
// The executable protocol in internal/mac is the engineering twin of
// this model; property tests cross-check the two.
package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/mac"
)

// TagState is one tag's protocol configuration x_i = (z_i, a_i, c_i).
type TagState struct {
	Settled bool
	Offset  uint8
	Nacks   uint8
}

// State is the network configuration: the global slot phase plus every
// tag's state. Inside a Model a state is stored as its packed code
// (see Model.encode).
type State struct {
	Phase uint8
	Tags  [MaxModelTags]TagState
}

// MaxModelTags bounds the exact model; the state space grows as
// (2*p*N)^T * lcm(p), so exact analysis is for small T.
const MaxModelTags = 4

// Model is the enumerated chain for one period assignment.
//
// States are numbered in breadth-first discovery order and stored as
// packed uint64 codes. The transitions form one CSR matrix: state id's
// outgoing edges are edges[rowPtr[id]:rowPtr[id+1]], strictly
// increasing in successor id.
type Model struct {
	Periods []mac.Period
	// NackThreshold is N from Fig. 7.
	NackThreshold uint8
	// Hyper is lcm(periods) — the slot phase space.
	Hyper uint8

	// nackRadix is N' = max(N, 1); radix[i] = 2*p_i*N' is the size of
	// tag i's code digit.
	nackRadix uint64
	radix     [MaxModelTags]uint64

	codes     []uint64 // codes[id] is the packed code of state id
	absorbing []bool   // absorbing[id] is IsAbsorbing(StateByID(id))
	numInit   int      // ids 0..numInit-1 are initialStates(), in order

	rowPtr []int
	edges  []edge
}

// edge is one CSR entry: a successor id and its probability. Keeping
// the pair together measured faster in the solver's sweep than split
// column and value arrays, or than a one-byte index into the chain's
// few distinct probabilities.
type edge struct {
	p  float64
	to int32
}

// maxStates bounds the chain so state ids fit the int32 CSR columns.
const maxStates = math.MaxInt32

// NewModel enumerates the full reachable chain for the given periods.
func NewModel(periods []mac.Period, nackThreshold int) (*Model, error) {
	if len(periods) == 0 || len(periods) > MaxModelTags {
		return nil, fmt.Errorf("core: model supports 1..%d tags, got %d", MaxModelTags, len(periods))
	}
	hyper := 1
	for _, p := range periods {
		if !mac.ValidPeriod(p) || p > math.MaxUint8 {
			return nil, fmt.Errorf("core: invalid period %d", p)
		}
		if int(p) > hyper {
			hyper = int(p)
		}
	}
	pt := mac.Pattern{Periods: periods}
	if pt.Utilization() > 1+1e-12 {
		return nil, fmt.Errorf("core: utilization %v exceeds capacity", pt.Utilization())
	}
	m := &Model{
		Periods:       periods,
		NackThreshold: uint8(nackThreshold),
		Hyper:         uint8(hyper),
		nackRadix:     uint64(max(uint8(nackThreshold), 1)),
	}
	space := uint64(hyper)
	for i, p := range periods {
		m.radix[i] = 2 * uint64(p) * m.nackRadix
		hi, lo := bits.Mul64(space, m.radix[i])
		if hi != 0 {
			return nil, fmt.Errorf("core: state space of periods %v with N=%d overflows a 64-bit code", periods, m.NackThreshold)
		}
		space = lo
	}
	if err := m.enumerate(); err != nil {
		return nil, err
	}
	return m, nil
}

// encode packs s into its mixed-radix code. The phase is the most
// significant digit, then tag 0, tag 1, ...; tag i's digit is
// settled*p_i*N' + offset*N' + nacks. Migrating sorts before settled,
// then offset, then NACKs, so integer order on codes is the
// lexicographic order (phase, tag 0, tag 1, ...) over exactly those
// fields: enumeration can number states by comparing codes.
func (m *Model) encode(s State) uint64 {
	c := uint64(s.Phase)
	for i := range m.Periods {
		c = c*m.radix[i] + m.digit(i, s.Tags[i])
	}
	return c
}

// digit is tag i's digit of the packed code.
func (m *Model) digit(i int, t TagState) uint64 {
	d := uint64(t.Offset)*m.nackRadix + uint64(t.Nacks)
	if t.Settled {
		d += uint64(m.Periods[i]) * m.nackRadix
	}
	return d
}

// decode inverts encode.
func (m *Model) decode(c uint64) State {
	var s State
	for i := len(m.Periods) - 1; i >= 0; i-- {
		d := c % m.radix[i]
		c /= m.radix[i]
		half := uint64(m.Periods[i]) * m.nackRadix
		settled := d >= half
		if settled {
			d -= half
		}
		s.Tags[i] = TagState{Settled: settled, Offset: uint8(d / m.nackRadix), Nacks: uint8(d % m.nackRadix)}
	}
	s.Phase = uint8(c)
	return s
}

// initialStates returns all post-RESET configurations: phase 0, every
// tag migrating with any offset and zero NACKs.
func (m *Model) initialStates() []State {
	var out []State
	var rec func(i int, st State)
	rec = func(i int, st State) {
		if i == len(m.Periods) {
			out = append(out, st)
			return
		}
		for a := 0; a < int(m.Periods[i]); a++ {
			st.Tags[i] = TagState{Settled: false, Offset: uint8(a)}
			rec(i+1, st)
		}
	}
	rec(0, State{Phase: 0})
	return out
}

// successor is one term of a state's transition distribution.
type successor struct {
	code uint64
	p    float64
}

// enumerate explores the reachable state space breadth-first, building
// the CSR transition rows. The queue is id order itself: the initial
// states take ids 0..k-1, and every row assigns fresh ids to its new
// successors in ascending code order (the order step emits them in).
// The code-to-id map lives only for the duration of the walk.
func (m *Model) enumerate() error {
	ids := make(map[uint64]int32)
	add := func(c uint64) int32 {
		if id, ok := ids[c]; ok {
			return id
		}
		id := int32(len(m.codes))
		ids[c] = id
		m.codes = append(m.codes, c)
		return id
	}
	for _, s := range m.initialStates() {
		add(m.encode(s))
	}
	m.numInit = len(m.codes)
	m.rowPtr = append(m.rowPtr, 0)
	var succ []successor
	for id := 0; id < len(m.codes); id++ {
		if len(m.codes) > maxStates {
			return fmt.Errorf("core: chain exceeds %d states", maxStates)
		}
		s := m.decode(m.codes[id])
		m.absorbing = append(m.absorbing, m.IsAbsorbing(s))
		succ = m.step(s, succ[:0])
		start := len(m.edges)
		for _, e := range succ {
			m.edges = append(m.edges, edge{e.p, add(e.code)})
		}
		// Rows are stored sorted by successor id: that fixes the
		// summation order of the absorption solver.
		slices.SortFunc(m.edges[start:], func(a, b edge) int { return cmp.Compare(a.to, b.to) })
		m.rowPtr = append(m.rowPtr, len(m.edges))
	}
	return nil
}

// soloCompatible reports whether tag i's candidate class avoids every
// other settled tag's class.
func (m *Model) soloCompatible(s State, i int) bool {
	cand := mac.Assignment{Period: m.Periods[i], Offset: int(s.Tags[i].Offset)}
	for j, t := range s.Tags[:len(m.Periods)] {
		if j == i || !t.Settled {
			continue
		}
		other := mac.Assignment{Period: m.Periods[j], Offset: int(t.Offset)}
		if cand.Conflicts(other) {
			return false
		}
	}
	return true
}

// step appends the one-slot transition distribution from s to buf as
// (code, probability) terms and returns the extended buffer. It
// expands the product distribution tag by tag, tag 0 outermost, each
// tag's choices in ascending digit order; since tag 0 is the most
// significant digit after the shared next phase, the terms come out in
// strictly ascending code order, one per distinct successor.
func (m *Model) step(s State, buf []successor) []successor {
	nextPhase := uint64((int(s.Phase) + 1) % int(m.Hyper))

	// Determine per-tag outcomes. Only transmitters react; the reader
	// ACKs a solo transmitter iff settling it there cannot collide with
	// an already-settled tag (the Sec. 5.6 veto, which Lemma 1 relies
	// on).
	type outcome int
	const (
		idle outcome = iota
		acked
		nacked
	)
	var out [MaxModelTags]outcome
	solo, ntx := 0, 0
	for i, p := range m.Periods {
		if int(s.Phase)%int(p) == int(s.Tags[i].Offset) {
			out[i] = nacked
			solo = i
			ntx++
		}
	}
	if ntx == 1 && m.soloCompatible(s, solo) {
		out[solo] = acked
	}

	var rec func(i int, code uint64, prob float64)
	rec = func(i int, code uint64, prob float64) {
		if i == len(m.Periods) {
			buf = append(buf, successor{code, prob})
			return
		}
		cur := s.Tags[i]
		code *= m.radix[i]
		switch out[i] {
		case idle:
			rec(i+1, code+m.digit(i, cur), prob)
		case acked:
			rec(i+1, code+m.digit(i, TagState{Settled: true, Offset: cur.Offset, Nacks: 0}), prob)
		case nacked:
			if cur.Settled && cur.Nacks+1 < m.NackThreshold {
				rec(i+1, code+m.digit(i, TagState{Settled: true, Offset: cur.Offset, Nacks: cur.Nacks + 1}), prob)
				return
			}
			// Migrate: uniform re-selection over the period.
			p := int(m.Periods[i])
			for a := 0; a < p; a++ {
				rec(i+1, code+m.digit(i, TagState{Settled: false, Offset: uint8(a)}), prob/float64(p))
			}
		}
	}
	rec(0, nextPhase, 1.0)
	return buf
}

// row returns state id's outgoing edges.
func (m *Model) row(id int) []edge { return m.edges[m.rowPtr[id]:m.rowPtr[id+1]] }

// NumStates returns the reachable state count.
func (m *Model) NumStates() int { return len(m.codes) }

// IsAbsorbing implements Definition 2: all tags settled (which, with
// the veto in place, implies a conflict-free schedule — Lemma 1).
func (m *Model) IsAbsorbing(s State) bool {
	for i := range m.Periods {
		if !s.Tags[i].Settled {
			return false
		}
	}
	return true
}

// AbsorbingStates lists the ids of absorbing states.
func (m *Model) AbsorbingStates() []int {
	var out []int
	for id, abs := range m.absorbing {
		if abs {
			out = append(out, id)
		}
	}
	return out
}

// StateByID returns the state for an id.
func (m *Model) StateByID(id int) State { return m.decode(m.codes[id]) }

// VerifyLemma1 checks that every reachable all-settled state has a
// pairwise conflict-free schedule.
func (m *Model) VerifyLemma1() error {
	as := make([]mac.Assignment, len(m.Periods))
	for id, abs := range m.absorbing {
		if !abs {
			continue
		}
		s := m.StateByID(id)
		for i, p := range m.Periods {
			as[i] = mac.Assignment{Period: p, Offset: int(s.Tags[i].Offset)}
		}
		if err := mac.VerifySchedule(as); err != nil {
			return fmt.Errorf("core: all-settled state %d collides: %w", id, err)
		}
	}
	return nil
}

// VerifyLemma2 checks that absorbing states only transition among
// absorbing states (settled tags never leave SETTLE under perfect
// links).
func (m *Model) VerifyLemma2() error {
	for id, abs := range m.absorbing {
		if !abs {
			continue
		}
		for _, e := range m.row(id) {
			if e.p > 0 && !m.absorbing[e.to] {
				return fmt.Errorf("core: absorbing state %d leaks to transient %d", id, e.to)
			}
		}
	}
	return nil
}

// VerifyReachability checks Lemma 3: from every reachable state there
// is a path of positive probability to an absorbing state.
func (m *Model) VerifyReachability() error {
	// Reverse CSR by counting: revPtr[to] ends up as the start of to's
	// predecessor list in revCol.
	n := len(m.codes)
	revPtr := make([]int32, n+1)
	for _, e := range m.edges {
		if e.p > 0 {
			revPtr[e.to]++
		}
	}
	for i := 1; i <= n; i++ {
		revPtr[i] += revPtr[i-1]
	}
	revCol := make([]int32, revPtr[n])
	for from := n - 1; from >= 0; from-- {
		for _, e := range m.row(from) {
			if e.p > 0 {
				revPtr[e.to]--
				revCol[revPtr[e.to]] = int32(from)
			}
		}
	}
	// Reverse BFS from the absorbing states.
	reach := make([]bool, n)
	queue := make([]int32, 0, n)
	for id, abs := range m.absorbing {
		if abs {
			reach[id] = true
			queue = append(queue, int32(id))
		}
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		for _, from := range revCol[revPtr[id]:revPtr[id+1]] {
			if !reach[from] {
				reach[from] = true
				queue = append(queue, from)
			}
		}
	}
	for id, ok := range reach {
		if !ok {
			return fmt.Errorf("core: state %d cannot reach any absorbing state", id)
		}
	}
	return nil
}

// Factorization is the solver-ready form of a model: reachability
// verified (Lemma 3) once per config, the CSR rows shared with the
// model, and the expected-absorption solve memoized, so sweeps that
// query the same config across many trials pay for one factor + one
// solve and then read a cached pair. Safe for concurrent use.
type Factorization struct {
	model *Model

	mu     sync.Mutex
	solved bool
	mean   float64
	worst  float64
}

// Factor verifies reachability and wraps the chain in a Factorization.
func (m *Model) Factor() (*Factorization, error) {
	if err := m.VerifyReachability(); err != nil {
		return nil, err
	}
	return &Factorization{model: m}, nil
}

const (
	// maxSweeps caps value iteration; hitting it is an error.
	maxSweeps = 1_000_000
	// convergedDelta is the max-norm step below which iteration stops.
	convergedDelta = 1e-10
	// minRowsPerWorker keeps small chains on one goroutine, where a
	// sweep is cheaper than a goroutine handoff.
	minRowsPerWorker = 1 << 14
)

// ExpectedAbsorptionSlots solves (I-Q)t = 1 by value iteration on the
// CSR rows and returns the expected slots-to-absorption from the
// uniform post-RESET initial distribution, plus the worst single
// transient state. Each sweep is split across up to GOMAXPROCS
// goroutines; the result does not depend on how many. The solve runs
// once; later calls return the memoized pair without touching the
// allocator. It returns an error if iteration does not converge.
func (f *Factorization) ExpectedAbsorptionSlots() (mean, worst float64, err error) {
	workers := min(runtime.GOMAXPROCS(0), f.model.NumStates()/minRowsPerWorker)
	return f.solve(max(workers, 1), maxSweeps)
}

// solve is ExpectedAbsorptionSlots with the worker count and sweep cap
// explicit. It memoizes only a converged result.
//
// Every row of a sweep reads only the previous vector and writes only
// its own entry, and max over |delta| does not depend on the order it
// is taken in, so splitting the rows into contiguous ranges yields the
// same bits, sweep for sweep, for any worker count.
func (f *Factorization) solve(workers, sweeps int) (mean, worst float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.solved {
		return f.mean, f.worst, nil
	}
	m := f.model
	n := m.NumStates()
	t := make([]float64, n)
	next := make([]float64, n)
	// Worker w sweeps rows bounds[w]..bounds[w+1], balanced by edges.
	bounds := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		target := len(m.edges) * w / workers
		bounds[w] = sort.Search(n, func(id int) bool { return m.rowPtr[id] >= target })
	}
	bounds[workers] = n
	deltas := make([]float64, workers)
	var delta float64
	converged := false
	for sweep := 0; sweep < sweeps && !converged; sweep++ {
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				deltas[w] = m.sweep(t, next, bounds[w], bounds[w+1])
			}(w)
		}
		deltas[0] = m.sweep(t, next, bounds[0], bounds[1])
		wg.Wait()
		delta = 0
		for _, d := range deltas {
			if d > delta {
				delta = d
			}
		}
		t, next = next, t
		converged = delta < convergedDelta
	}
	if !converged {
		return 0, 0, fmt.Errorf("core: value iteration did not converge in %d sweeps (max step %g)", sweeps, delta)
	}
	var sum float64
	for id := range m.numInit {
		sum += t[id]
	}
	worstV := 0.0
	for id := range t {
		if t[id] > worstV {
			worstV = t[id]
		}
	}
	f.mean = sum / float64(m.numInit)
	f.worst = worstV
	f.solved = true
	return f.mean, f.worst, nil
}

// sweep computes next[id] = 1 + sum_k Q[id,k] t[k] for rows lo..hi-1
// (0 for absorbing rows) and returns the largest |next[id] - t[id]|.
func (m *Model) sweep(t, next []float64, lo, hi int) float64 {
	var delta float64
	for id := lo; id < hi; id++ {
		if m.absorbing[id] {
			next[id] = 0
			continue
		}
		v := 1.0
		for _, e := range m.row(id) {
			v += e.p * t[e.to]
		}
		if d := v - t[id]; d > delta {
			delta = d
		} else if -d > delta {
			delta = -d
		}
		next[id] = v
	}
	return delta
}

// Model returns the enumerated chain this factorization was built from.
func (f *Factorization) Model() *Model { return f.model }

// ExpectedAbsorptionSlots is the unfactored entry point: it factors the
// chain and solves. Sweeps should prefer ForConfig, which caches the
// factorization across trials.
func (m *Model) ExpectedAbsorptionSlots() (mean, worst float64, err error) {
	f, err := m.Factor()
	if err != nil {
		return 0, 0, err
	}
	return f.ExpectedAbsorptionSlots()
}

// Describe returns a short human-readable model summary.
func (m *Model) Describe() string {
	ps := make([]int, len(m.Periods))
	for i, p := range m.Periods {
		ps[i] = int(p)
	}
	sort.Ints(ps)
	return fmt.Sprintf("core: periods=%v N=%d states=%d absorbing=%d",
		ps, m.NackThreshold, m.NumStates(), len(m.AbsorbingStates()))
}
