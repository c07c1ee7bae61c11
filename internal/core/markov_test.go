package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mac"
)

func newModel(t *testing.T, periods ...int) *Model {
	t.Helper()
	ps := make([]mac.Period, len(periods))
	for i, p := range periods {
		ps[i] = mac.Period(p)
	}
	m, err := NewModel(ps, mac.DefaultNackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, 3); err == nil {
		t.Error("empty periods accepted")
	}
	if _, err := NewModel([]mac.Period{2, 2, 2}, 3); err == nil {
		t.Error("over-capacity accepted")
	}
	if _, err := NewModel([]mac.Period{3}, 3); err == nil {
		t.Error("invalid period accepted")
	}
	if _, err := NewModel(make([]mac.Period, MaxModelTags+1), 3); err == nil {
		t.Error("too many tags accepted")
	}
	if _, err := NewModel([]mac.Period{256}, 3); err == nil {
		t.Error("period beyond the 8-bit phase space accepted")
	}
	if _, err := NewModel([]mac.Period{128, 128, 128, 128}, 255); err == nil {
		t.Error("state space overflowing the 64-bit code accepted")
	}
}

func TestSingleTagChain(t *testing.T) {
	m := newModel(t, 2)
	// One tag, period 2: states = phase(2) x (settled? x offset(2) x
	// nacks) — small and fully absorbing-reachable.
	if m.NumStates() == 0 {
		t.Fatal("no states")
	}
	if err := m.VerifyLemma1(); err != nil {
		t.Error(err)
	}
	if err := m.VerifyLemma2(); err != nil {
		t.Error(err)
	}
	if err := m.VerifyReachability(); err != nil {
		t.Error(err)
	}
	mean, worst, err := m.ExpectedAbsorptionSlots()
	if err != nil {
		t.Fatal(err)
	}
	// A lone tag settles on its first transmission: expected time is
	// within one period of the first matching slot.
	if mean <= 0 || mean > 4 {
		t.Errorf("mean absorption = %v slots", mean)
	}
	if worst < mean {
		t.Errorf("worst %v < mean %v", worst, mean)
	}
}

// TestAppendixCLemmas verifies Lemmas 1-3 and Theorem 4 mechanically on
// several small networks, including full utilization.
func TestAppendixCLemmas(t *testing.T) {
	cases := [][]int{
		{2},
		{2, 2},       // full utilization, two tags
		{2, 4, 4},    // full utilization, mixed periods
		{4, 4},       // half utilization
		{4, 4, 4, 4}, // full utilization, four tags
	}
	for _, periods := range cases {
		m := newModel(t, periods...)
		if err := m.VerifyLemma1(); err != nil {
			t.Errorf("%v: Lemma 1: %v", periods, err)
		}
		if err := m.VerifyLemma2(); err != nil {
			t.Errorf("%v: Lemma 2: %v", periods, err)
		}
		if err := m.VerifyReachability(); err != nil {
			t.Errorf("%v: Lemma 3: %v", periods, err)
		}
	}
}

func TestAbsorbingStatesAreConflictFree(t *testing.T) {
	m := newModel(t, 2, 4, 4)
	abs := m.AbsorbingStates()
	if len(abs) == 0 {
		t.Fatal("no absorbing states at full utilization")
	}
	for _, id := range abs {
		s := m.StateByID(id)
		if !m.IsAbsorbing(s) {
			t.Fatal("AbsorbingStates returned non-absorbing state")
		}
	}
}

func TestExpectedAbsorptionGrowsWithUtilization(t *testing.T) {
	low := newModel(t, 4, 4) // U = 0.5
	high := newModel(t, 2, 4, 4)
	meanLow, _, err := low.ExpectedAbsorptionSlots()
	if err != nil {
		t.Fatal(err)
	}
	meanHigh, _, err := high.ExpectedAbsorptionSlots()
	if err != nil {
		t.Fatal(err)
	}
	if meanHigh <= meanLow {
		t.Errorf("full utilization (%v slots) should converge slower than half (%v)",
			meanHigh, meanLow)
	}
}

// TestModelMatchesSimulator cross-checks the exact expected absorption
// time against the executable protocol's Monte Carlo average: the
// engineering twin (mac.SlotSim) and the formal model must agree.
func TestModelMatchesSimulator(t *testing.T) {
	periods := []mac.Period{2, 4, 4}
	m, err := NewModel(periods, mac.DefaultNackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := m.ExpectedAbsorptionSlots()
	if err != nil {
		t.Fatal(err)
	}
	// Monte Carlo over the simulator: absorption = all tags settled
	// (measure the first all-settled slot, comparable to the model's
	// absorption definition).
	const trials = 400
	var sum float64
	for seed := 0; seed < trials; seed++ {
		s, err := mac.NewSlotSim(mac.SlotSimConfig{
			Pattern: mac.Pattern{Periods: periods},
			Seed:    uint64(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		slots := 0
		for ; slots < 10_000; slots++ {
			s.Step()
			if s.AllSettled() {
				break
			}
		}
		sum += float64(slots)
	}
	mc := sum / trials
	// The simulator's reader tracks a little more state than the model
	// (eviction, belief staleness), so allow a generous band; the two
	// must still agree on the scale.
	if mc < exact/3 || mc > exact*3 {
		t.Errorf("simulator mean %.1f vs exact %.1f slots", mc, exact)
	}
}

func TestDescribe(t *testing.T) {
	m := newModel(t, 4, 2)
	s := m.Describe()
	if !strings.Contains(s, "states=") || !strings.Contains(s, "absorbing=") {
		t.Errorf("describe = %q", s)
	}
}

// TestTransitionProbabilitiesSumToOne is a structural check on the
// enumerated CSR rows: positive probabilities summing to one, and
// successors strictly increasing in id (no duplicates), which fixes the
// solver's summation order.
func TestTransitionProbabilitiesSumToOne(t *testing.T) {
	for _, periods := range [][]int{{2, 4}, {2, 4, 4}, {4, 4, 4, 4}} {
		m := newModel(t, periods...)
		if len(m.rowPtr) != m.NumStates()+1 || m.rowPtr[0] != 0 || m.rowPtr[m.NumStates()] != len(m.edges) {
			t.Fatalf("%v: malformed row pointers", periods)
		}
		for id := 0; id < m.NumStates(); id++ {
			row := m.row(id)
			if len(row) == 0 {
				t.Fatalf("%v: state %d has no successors", periods, id)
			}
			var sum float64
			for k, e := range row {
				if e.p <= 0 || e.p > 1 {
					t.Fatalf("%v: state %d edge %d probability %v", periods, id, k, e.p)
				}
				if e.to < 0 || int(e.to) >= m.NumStates() {
					t.Fatalf("%v: state %d successor %d out of range", periods, id, e.to)
				}
				if k > 0 && e.to <= row[k-1].to {
					t.Fatalf("%v: state %d successors not strictly increasing: %d after %d",
						periods, id, e.to, row[k-1].to)
				}
				sum += e.p
			}
			if sum < 0.999999 || sum > 1.000001 {
				t.Fatalf("%v: state %d outgoing mass %v", periods, id, sum)
			}
		}
	}
}

// stateLess is the reference total order on states (phase, then per
// tag: migrating before settled, offset, NACKs) that state numbering
// follows.
func stateLess(a, b State) bool {
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	for i := range a.Tags {
		at, bt := a.Tags[i], b.Tags[i]
		if at.Settled != bt.Settled {
			return !at.Settled
		}
		if at.Offset != bt.Offset {
			return at.Offset < bt.Offset
		}
		if at.Nacks != bt.Nacks {
			return at.Nacks < bt.Nacks
		}
	}
	return false
}

// The packed code must round-trip every state and order states exactly
// as stateLess does; a state's successors must be emitted in ascending
// code order, the order fresh ids are assigned in.
func TestPackedCodeOrderMatchesStateLess(t *testing.T) {
	for _, periods := range [][]int{{2}, {2, 4, 4}, {4, 4, 8}} {
		m := newModel(t, periods...)
		for id := 0; id < m.NumStates(); id++ {
			s := m.StateByID(id)
			if c := m.encode(s); c != m.codes[id] {
				t.Fatalf("%v: state %d code %d re-encodes to %d", periods, id, m.codes[id], c)
			}
			if abs := m.IsAbsorbing(s); abs != m.absorbing[id] {
				t.Fatalf("%v: state %d absorbing flag %v, want %v", periods, id, m.absorbing[id], abs)
			}
		}
		// Both orders are strict and total, so they agree iff the
		// code-sorted sequence is strictly increasing under stateLess.
		byCode := slices.Clone(m.codes)
		slices.Sort(byCode)
		for k := 1; k < len(byCode); k++ {
			a, b := m.decode(byCode[k-1]), m.decode(byCode[k])
			if !stateLess(a, b) || stateLess(b, a) {
				t.Fatalf("%v: codes %d < %d disagree with stateLess", periods, byCode[k-1], byCode[k])
			}
		}
		for id := 0; id < m.NumStates(); id++ {
			succ := m.step(m.StateByID(id), nil)
			for k := 1; k < len(succ); k++ {
				if succ[k].code <= succ[k-1].code {
					t.Fatalf("%v: state %d successors emitted out of code order", periods, id)
				}
			}
		}
	}
}

// TestModelDeterministicEnumeration guards against map-order dependence
// in state numbering.
func TestModelDeterministicEnumeration(t *testing.T) {
	a := newModel(t, 2, 4, 4)
	b := newModel(t, 2, 4, 4)
	if a.NumStates() != b.NumStates() {
		t.Fatalf("state counts differ: %d vs %d", a.NumStates(), b.NumStates())
	}
	ea, _, err := a.ExpectedAbsorptionSlots()
	if err != nil {
		t.Fatal(err)
	}
	eb, _, err := b.ExpectedAbsorptionSlots()
	if err != nil {
		t.Fatal(err)
	}
	if ea != eb {
		t.Errorf("expected times differ: %v vs %v", ea, eb)
	}
}
