package mac

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// stateDiff names the first field in which two simulators differ, or
// returns "" when their full state — tags, tag RNGs, reader, window
// ring, detector, simulator RNG and pending feedback — is identical.
// Per-slot scratch is excluded: it only aliases the last SlotResult.
func stateDiff(a, b *SlotSim) string {
	if a.SlotsRun != b.SlotsRun || a.TruthNonEmpty != b.TruthNonEmpty || a.TruthCollisions != b.TruthCollisions {
		return fmt.Sprintf("counters (%d,%d,%d) vs (%d,%d,%d)", a.SlotsRun, a.TruthNonEmpty, a.TruthCollisions,
			b.SlotsRun, b.TruthNonEmpty, b.TruthCollisions)
	}
	if *a.rng != *b.rng || a.fb != b.fb {
		return "simulator rng or pending feedback"
	}
	for i := range a.tags {
		ta, tb := *a.tags[i], *b.tags[i]
		// DeepEqual follows the proto and rng pointers.
		if !reflect.DeepEqual(ta, tb) {
			return fmt.Sprintf("tag %d: %+v %+v vs %+v %+v", ta.tid, ta, *ta.proto, tb, *tb.proto)
		}
	}
	ra, rb := a.reader, b.reader
	if ra.slot != rb.slot || ra.settledCount != rb.settledCount || ra.evictTID != rb.evictTID ||
		ra.evictNacks != rb.evictNacks || ra.NackThreshold != rb.NackThreshold ||
		ra.DisableFutureVeto != rb.DisableFutureVeto || len(ra.appearedHi) != len(rb.appearedHi) ||
		!reflect.DeepEqual(ra.settled, rb.settled) || !reflect.DeepEqual(ra.settledOK, rb.settledOK) ||
		!reflect.DeepEqual(ra.misses, rb.misses) || !reflect.DeepEqual(ra.appeared, rb.appeared) {
		return "reader"
	}
	if !reflect.DeepEqual(*a.Window, *b.Window) {
		return fmt.Sprintf("window %+v vs %+v", *a.Window, *b.Window)
	}
	if *a.Convergence != *b.Convergence {
		return fmt.Sprintf("detector %+v vs %+v", *a.Convergence, *b.Convergence)
	}
	return ""
}

// nullFaults is a fault source that never injects anything: the run is
// fault-free, but an attached source must still disable the skip.
type nullFaults struct{}

func (nullFaults) BeginSlot(int) SlotFaults { return SlotFaults{} }

type skipCase struct {
	name string
	cfg  SlotSimConfig
	// neverSkips: the configuration must step every slot.
	neverSkips bool
}

func skipCases() []skipCase {
	var cs []skipCase
	for _, pt := range Table3Patterns() {
		cs = append(cs, skipCase{name: pt.Name, cfg: SlotSimConfig{Pattern: pt}})
	}
	c3, c5 := Table3Patterns()[2], Table3Patterns()[4]
	join := make([]int, c3.NumTags())
	for i := range join {
		join[i] = 37 * i
	}
	loss := make([]float64, c3.NumTags())
	loss[3] = 0.001
	cs = append(cs,
		skipCase{name: "c3-join", cfg: SlotSimConfig{Pattern: c3, JoinSlot: join}},
		skipCase{name: "c5-nack5", cfg: SlotSimConfig{Pattern: c5, NackThreshold: 5}},
		skipCase{name: "c3-no-timer", cfg: SlotSimConfig{Pattern: c3, DisableBeaconLossTimer: true}},
		skipCase{name: "c3-no-empty", cfg: SlotSimConfig{Pattern: c3, DisableEmptyGate: true, JoinSlot: join}},
		skipCase{name: "c3-no-veto", cfg: SlotSimConfig{Pattern: c3, DisableFutureVeto: true}},
		skipCase{name: "c3-lossy-uplink", cfg: SlotSimConfig{Pattern: c3, ULDecodeFailProb: []float64{0, 0.01}, CaptureProb: 0.2}},
		skipCase{name: "c3-beacon-loss", cfg: SlotSimConfig{Pattern: c3, BeaconLossProb: loss}, neverSkips: true},
		skipCase{name: "c3-traced", cfg: SlotSimConfig{Pattern: c3, Trace: obs.New(obs.NewMemorySink())}, neverSkips: true},
		skipCase{name: "c3-fault-source", cfg: SlotSimConfig{Pattern: c3, Faults: nullFaults{}}, neverSkips: true},
	)
	return cs
}

// Run(chunk) must leave exactly the state a plain Step loop reaches,
// after every chunk, whether or not it fast-forwarded.
func TestRunSkipMatchesStep(t *testing.T) {
	const horizon = 6000
	for _, c := range skipCases() {
		for _, seed := range []uint64{1, 2, 3} {
			for _, chunk := range []int{1, 37, 512, 5000} {
				cfg := c.cfg
				cfg.Seed = seed
				if cfg.Trace != nil {
					cfg.Trace = obs.New(obs.NewMemorySink()) // one sink per run
				}
				run, err := NewSlotSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewSlotSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for run.SlotsRun < horizon {
					n, stepped := min(chunk, horizon-run.SlotsRun), run.stepped
					run.Run(n)
					// Compare after every chunk that skipped, and at the
					// end (per-slot compares would dominate make race).
					if run.stepped-stepped == n && run.SlotsRun < horizon {
						continue
					}
					for ref.SlotsRun < run.SlotsRun {
						ref.Step()
					}
					if d := stateDiff(run, ref); d != "" {
						t.Fatalf("%s seed %d chunk %d: after slot %d: %s", c.name, seed, chunk, run.SlotsRun, d)
					}
				}
				if c.neverSkips && run.stepped != horizon {
					t.Errorf("%s seed %d chunk %d: skipped %d slots, want none", c.name, seed, chunk, horizon-run.stepped)
				}
			}
		}
	}
}

// The skip must actually engage: fault-free c1..c9 runs settle early,
// so a silent fallback to stepping every slot fails here.
func TestRunSkipEngages(t *testing.T) {
	const horizon = 10_000
	total, stepped := 0, 0
	for _, pt := range Table3Patterns() {
		for _, seed := range []uint64{1, 2, 3} {
			s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for s.SlotsRun < horizon {
				s.Run(min(512, horizon-s.SlotsRun)) // the fleet job chunking
			}
			total += s.SlotsRun
			stepped += s.stepped
		}
	}
	if frac := float64(stepped) / float64(total); frac >= 0.15 {
		t.Fatalf("stepped %d of %d slots (%.1f%%), want < 15%%", stepped, total, 100*frac)
	}
}

// A pooled clone that fast-forwarded in its previous trial must come
// back from Acquire identical to a fresh build, and replay the same run.
func TestRunSkipPooledCloneMatchesFresh(t *testing.T) {
	cfg := SlotSimConfig{Pattern: Table3Patterns()[4]} // c5
	sn, err := NewSlotSimSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 3} {
		dirty := sn.Acquire(seed+100, nil, nil)
		dirty.Run(8000)
		if dirty.stepped == dirty.SlotsRun {
			t.Fatalf("seed %d: warm-up run never skipped", seed+100)
		}
		sn.Release(dirty)

		clone := sn.Acquire(seed, nil, nil)
		fcfg := cfg
		fcfg.Seed = seed
		fresh, err := NewSlotSim(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := stateDiff(clone, fresh); d != "" || clone.mark.valid || clone.stepped != 0 {
			t.Fatalf("seed %d: acquired clone differs from a fresh build: %q (mark valid %v)", seed, d, clone.mark.valid)
		}
		clone.Run(8000)
		for fresh.SlotsRun < clone.SlotsRun {
			fresh.Step()
		}
		if d := stateDiff(clone, fresh); d != "" {
			t.Fatalf("seed %d: clone run diverges from stepping: %s", seed, d)
		}
		sn.Release(clone)
	}
}

// A skip allocates nothing once the mark is sized (at the simulator's
// first eligible boundary).
func TestRunSkipAllocationFree(t *testing.T) {
	s, err := NewSlotSim(SlotSimConfig{Pattern: Table3Patterns()[2], Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5000)
	before := s.stepped
	n := testing.AllocsPerRun(20, func() { s.Run(512) })
	if n != 0 {
		t.Fatalf("Run allocates %v per call across a skip, want 0", n)
	}
	if skipped := 21*512 - (s.stepped - before); skipped == 0 {
		t.Fatal("no slot was skipped while measuring")
	}
}

// Every field the cycle proof compares must break the match on its
// own: a field the comparison missed could differ between two
// "identical" boundaries and make the skip replay the wrong cycle.
func TestRunSkipMarkComparesEveryField(t *testing.T) {
	perturb := []struct {
		name string
		f    func(s *SlotSim)
	}{
		{"simulator rng", func(s *SlotSim) { s.rng.Uint64() }},
		{"pending feedback", func(s *SlotSim) { s.fb.ACK = !s.fb.ACK }},
		{"tag rng", func(s *SlotSim) { s.tags[1].proto.rng.Uint64() }},
		{"tag state", func(s *SlotSim) { s.tags[1].proto.state = Migrate }},
		{"tag offset", func(s *SlotSim) { s.tags[1].proto.offset ^= 1 }},
		{"tag counter", func(s *SlotSim) { s.tags[1].proto.counter++ }},
		{"tag nacks", func(s *SlotSim) { s.tags[1].proto.nacks++ }},
		{"tag transmitted", func(s *SlotSim) { s.tags[1].proto.transmitted = !s.tags[1].proto.transmitted }},
		{"tag newcomer", func(s *SlotSim) { s.tags[1].proto.newcomer = !s.tags[1].proto.newcomer }},
		{"tag NackThreshold", func(s *SlotSim) { s.tags[1].proto.NackThreshold++ }},
		{"tag DisableEmptyGate", func(s *SlotSim) { s.tags[1].proto.DisableEmptyGate = true }},
		{"reader slot", func(s *SlotSim) { s.reader.slot++ }},
		{"reader settled", func(s *SlotSim) { s.reader.settled[2].Offset ^= 1 }},
		{"reader settledOK", func(s *SlotSim) { s.reader.settledOK[2] = !s.reader.settledOK[2] }},
		{"reader misses", func(s *SlotSim) { s.reader.misses[2]++ }},
		{"reader appeared", func(s *SlotSim) { s.reader.appeared[2] = !s.reader.appeared[2] }},
		{"reader appearedHi", func(s *SlotSim) { s.reader.markAppeared(1 << 10) }},
		{"reader evictTID", func(s *SlotSim) { s.reader.evictTID = 2 }},
		{"reader evictNacks", func(s *SlotSim) { s.reader.evictNacks++ }},
		{"reader NackThreshold", func(s *SlotSim) { s.reader.NackThreshold++ }},
		{"reader DisableFutureVeto", func(s *SlotSim) { s.reader.DisableFutureVeto = true }},
	}
	for _, p := range perturb {
		s, err := NewSlotSim(SlotSimConfig{Pattern: Table3Patterns()[0], Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(2000)
		s.takeMark()
		if !s.matchesMark() {
			t.Fatal("a fresh mark does not match the live state")
		}
		p.f(s)
		if s.matchesMark() {
			t.Errorf("%s: perturbed state still matches the mark", p.name)
		}
	}
}
