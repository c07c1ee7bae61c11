package core

import (
	"testing"

	"repro/internal/mac"
)

// The factored solver must return exactly what the enumerate-and-solve
// path returns — the Appendix C tables may not move by a single bit.
// The small configs compare ForConfig with a second, independent
// Model build; the two large ones are built once and compared with
// their pinned bits instead (see goldenChains).
func TestFactoredSolveMatchesModel(t *testing.T) {
	cases := [][]mac.Period{
		{4, 4},
		{4, 8, 8},
		{8, 8, 8, 8},
		{4, 4, 8, 16},
	}
	if raceEnabled {
		// The two large enumerations take minutes each under race
		// instrumentation; the small configs still exercise the full
		// factored-vs-enumerated equality.
		cases = cases[:2]
	}
	for i, ps := range cases {
		f, err := ForConfig(ps, mac.DefaultNackThreshold)
		if err != nil {
			t.Fatal(err)
		}
		gotMean, gotWorst, err := f.ExpectedAbsorptionSlots()
		if err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			checkGolden(t, f, gotMean, gotWorst, goldenFor(t, ps...))
			continue
		}
		m, err := NewModel(ps, mac.DefaultNackThreshold)
		if err != nil {
			t.Fatal(err)
		}
		wantMean, wantWorst, err := m.ExpectedAbsorptionSlots()
		if err != nil {
			t.Fatal(err)
		}
		if gotMean != wantMean || gotWorst != wantWorst {
			t.Fatalf("periods %v: factored (%v, %v) != model (%v, %v)",
				ps, gotMean, gotWorst, wantMean, wantWorst)
		}
	}
}

// Repeated ForConfig calls for the same config must reuse one
// factorization (the ISSUE 7 reuse counter assertion) and the cached
// solve must not allocate.
func TestForConfigReusesFactorization(t *testing.T) {
	ps := []mac.Period{4, 8, 8}
	f0, err := ForConfig(ps, mac.DefaultNackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f0.ExpectedAbsorptionSlots(); err != nil {
		t.Fatal(err)
	}
	builds0, hits0 := FactorCacheStats()
	for i := 0; i < 25; i++ {
		f, err := ForConfig(ps, mac.DefaultNackThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if f != f0 {
			t.Fatal("ForConfig returned a different factorization for the same config")
		}
	}
	builds1, hits1 := FactorCacheStats()
	if builds1 != builds0 {
		t.Fatalf("repeated ForConfig rebuilt the factorization: builds %d -> %d", builds0, builds1)
	}
	if hits1 != hits0+25 {
		t.Fatalf("expected 25 cache hits, got %d", hits1-hits0)
	}

	n := testing.AllocsPerRun(100, func() {
		if _, _, err := f0.ExpectedAbsorptionSlots(); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("memoized solve allocates %v per run, want 0", n)
	}
}

// Distinct configs get distinct factorizations and the LRU keeps them
// both live across interleaved access.
func TestForConfigDistinguishesConfigs(t *testing.T) {
	a, err := ForConfig([]mac.Period{4, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ForConfig([]mac.Period{4, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ForConfig([]mac.Period{4, 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == c || b == c {
		t.Fatal("distinct configs shared a factorization")
	}
	a2, err := ForConfig([]mac.Period{4, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Fatal("interleaved access evicted a live config")
	}
	if _, err := ForConfig([]mac.Period{3, 4}, 3); err == nil {
		t.Fatal("invalid period must not be cached as a success")
	}
}
