package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/mac"
)

// goldenChain pins one chain's shape and the exact bits of its expected
// absorption times (mac.DefaultNackThreshold), as computed by the
// map-keyed enumeration that preceded the packed-code chain. Any drift
// in state numbering, summation order or convergence shows up here.
type goldenChain struct {
	periods          []mac.Period
	states, absorbed int
	mean, worst      uint64
}

var goldenChains = []goldenChain{
	// The five Appendix C table cases.
	{[]mac.Period{2}, 7, 4, 0x3ff8000000000000, 0x4000000000000000},
	{[]mac.Period{2, 2}, 16, 4, 0x400bfffffffe2231, 0x4015fffffffdb972},
	{[]mac.Period{4, 4}, 160, 48, 0x4010aaaaaaaa70e9, 0x40205555555483fd},
	{[]mac.Period{2, 4, 4}, 2652, 96, 0x402c3ce518f89e66, 0x403d7849ea4b3772},
	{[]mac.Period{4, 4, 4, 4}, 84816, 2400, 0x4030427ffa4189e2, 0x40348ebb1eb66b7c},
	// The markov-proof benchmark chain and the two largest test chains.
	{[]mac.Period{4, 4, 8, 8}, 776032, 30048, 0x403127af1e55b3cb, 0x4038c88c281aa982},
	{[]mac.Period{8, 8, 8, 8}, 4125216, 357120, 0x4027689755987760, 0x403413bb13ac259e},
	{[]mac.Period{4, 4, 8, 16}, 3155088, 120832, 0x4038f098de95852a, 0x4043d4e1d642d9af},
}

// raceMaxStates drops the chains that take minutes under the race
// detector.
const raceMaxStates = 100_000

func goldenFor(t *testing.T, periods ...mac.Period) goldenChain {
	t.Helper()
	for _, g := range goldenChains {
		if slices.Equal(g.periods, periods) {
			return g
		}
	}
	t.Fatalf("no golden chain for %v", periods)
	return goldenChain{}
}

// checkGolden compares a factorization's chain and solve with g.
func checkGolden(t *testing.T, f *Factorization, mean, worst float64, g goldenChain) {
	t.Helper()
	m := f.Model()
	if m.NumStates() != g.states || len(m.AbsorbingStates()) != g.absorbed {
		t.Errorf("%v: states=%d absorbing=%d, want %d, %d",
			g.periods, m.NumStates(), len(m.AbsorbingStates()), g.states, g.absorbed)
	}
	if math.Float64bits(mean) != g.mean || math.Float64bits(worst) != g.worst {
		t.Errorf("%v: mean=%#016x worst=%#016x, want %#016x, %#016x",
			g.periods, math.Float64bits(mean), math.Float64bits(worst), g.mean, g.worst)
	}
}

// TestChainGoldenBits pins state counts, absorbing counts and the exact
// mean/worst bits of every Appendix C chain plus the large ones, so a
// change to enumeration or the solver cannot drift silently between
// builds. Chains come from ForConfig, which the other large-chain tests
// share.
func TestChainGoldenBits(t *testing.T) {
	for _, g := range goldenChains {
		if raceEnabled && g.states > raceMaxStates {
			continue
		}
		f, err := ForConfig(g.periods, mac.DefaultNackThreshold)
		if err != nil {
			t.Fatal(err)
		}
		mean, worst, err := f.ExpectedAbsorptionSlots()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, f, mean, worst, g)
	}
}

// The row-parallel sweep must give the same bits for any worker count,
// including more workers than rows per worker.
func TestSolveWorkerCountIndependent(t *testing.T) {
	for _, ps := range [][]mac.Period{{2, 4, 4}, {4, 4, 4, 4}} {
		m, err := NewModel(ps, mac.DefaultNackThreshold)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7} {
			f, err := m.Factor()
			if err != nil {
				t.Fatal(err)
			}
			mean, worst, err := f.solve(workers, maxSweeps)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", ps, workers, err)
			}
			checkGolden(t, f, mean, worst, goldenFor(t, ps...))
		}
	}
}

// Concurrent callers on one fresh factorization share one solve and
// all read the same bits. The chain is large enough for the default
// worker count to split its sweeps when GOMAXPROCS > 1.
func TestSolveConcurrentCallers(t *testing.T) {
	m, err := NewModel([]mac.Period{4, 4, 4, 4}, mac.DefaultNackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Factor()
	if err != nil {
		t.Fatal(err)
	}
	const callers = 6
	means := make([]float64, callers)
	worsts := make([]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			means[i], worsts[i], errs[i] = f.ExpectedAbsorptionSlots()
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkGolden(t, f, means[i], worsts[i], goldenFor(t, 4, 4, 4, 4))
	}
}

// Hitting the sweep cap before convergence is an error, and nothing is
// memoized: a later uncapped solve still converges to the pinned bits.
func TestSolveFailsWithoutConvergence(t *testing.T) {
	m, err := NewModel([]mac.Period{2, 4, 4}, mac.DefaultNackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Factor()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.solve(2, 3); err == nil {
		t.Fatal("3-sweep solve reported convergence")
	}
	if f.solved {
		t.Fatal("non-converged solve was memoized")
	}
	mean, worst, err := f.ExpectedAbsorptionSlots()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, f, mean, worst, goldenFor(t, 2, 4, 4))
}
