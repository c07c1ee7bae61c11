package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/biw"
	"repro/internal/dsp"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/fleetd"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
)

// probe is one rung of the layer ladder: an isolated loop over one
// public function, on inputs drawn from the workload seed. setup
// builds the inputs and returns the loop body, which runs op i and
// reports a wrong output as an error. scale converts ns/op to the
// metric's unit.
type probe struct {
	metric string
	span   string
	iters  int
	scale  float64
	setup  func(r *sim.Rand) (func(i int) error, error)
}

// probeReps is how many timed loops a probe runs; it reports the
// median loop's time per op.
const probeReps = 5

var ladder = []probe{
	{"biw.tag_loss_ns", "biw.tag_loss_db", 2000, 1, func(r *sim.Rand) (func(int) error, error) {
		d := biw.NewONVOL60()
		ids := seededIDs(r, d.NumTags())
		want := make([]float64, len(ids))
		for i, id := range ids {
			v, err := d.TagLossDB(id)
			if err != nil {
				return nil, err
			}
			want[i] = v
		}
		return func(i int) error {
			k := i % len(ids)
			v, err := d.TagLossDB(ids[k])
			if err != nil || v != want[k] {
				return fmt.Errorf("TagLossDB(%d) = %v, %v; want %v", ids[k], v, err, want[k])
			}
			return nil
		}, nil
	}},
	{"biw.tag_delay_ns", "biw.tag_delay", 2000, 1, func(r *sim.Rand) (func(int) error, error) {
		d := biw.NewONVOL60()
		ids := seededIDs(r, d.NumTags())
		want := make([]float64, len(ids))
		for i, id := range ids {
			v, err := d.TagDelay(id)
			if err != nil {
				return nil, err
			}
			want[i] = v
		}
		return func(i int) error {
			k := i % len(ids)
			v, err := d.TagDelay(ids[k])
			if err != nil || v != want[k] {
				return fmt.Errorf("TagDelay(%d) = %v, %v; want %v", ids[k], v, err, want[k])
			}
			return nil
		}, nil
	}},
	{"energy.integrate_ns", "energy.integrate", 200_000, 1, func(r *sim.Rand) (func(int) error, error) {
		h := energy.NewHarvester(4 + r.Intn(7))
		vp := make([]float64, 256)
		for i := range vp {
			vp[i] = 0.2 + r.Float64()
		}
		return func(i int) error {
			v, _ := h.Integrate(vp[i%len(vp)], 1e-4, 1e-3)
			if v < 0 {
				return fmt.Errorf("Integrate: negative voltage %v", v)
			}
			return nil
		}, nil
	}},
	{"sim.event_ns", "sim.run_until", 64, 1.0 / 1024, func(r *sim.Rand) (func(int) error, error) {
		// One op schedules 1024 events with After and drains them
		// with RunUntil; scale reports ns per event.
		delays := make([]sim.Time, 1024)
		for i := range delays {
			delays[i] = sim.Time(1 + r.Intn(int(sim.Second)))
		}
		return func(int) error {
			e := sim.NewEngine()
			fired := 0
			count := func(sim.Time) { fired++ }
			for _, d := range delays {
				e.After(d, "probe", count)
			}
			e.RunUntil(2 * sim.Second)
			if fired != len(delays) {
				return fmt.Errorf("RunUntil fired %d of %d events", fired, len(delays))
			}
			return nil
		}, nil
	}},
	{"phy.fm0_decode_ns", "phy.fm0_decode", 20_000, 1, func(r *sim.Rand) (func(int) error, error) {
		frames, err := seededFrames(r)
		if err != nil {
			return nil, err
		}
		chips := make([]phy.Bits, len(frames))
		for i, f := range frames {
			chips[i] = phy.FM0Encode(f, 0)
		}
		return func(i int) error {
			k := i % len(frames)
			got, err := phy.FM0Decode(chips[k], 0)
			if err != nil || !got.Equal(frames[k]) {
				return fmt.Errorf("FM0Decode: %v", err)
			}
			return nil
		}, nil
	}},
	{"phy.pie_decode_ns", "phy.pie_decode", 20_000, 1, func(r *sim.Rand) (func(int) error, error) {
		var frames, chips []phy.Bits
		for i := 0; i < 64; i++ {
			b, err := phy.Beacon{Cmd: phy.Command(r.Intn(16))}.Marshal()
			if err != nil {
				return nil, err
			}
			frames = append(frames, b)
			chips = append(chips, phy.PIEEncode(b))
		}
		return func(i int) error {
			k := i % len(frames)
			got, err := phy.PIEDecode(chips[k])
			if err != nil || !got.Equal(frames[k]) {
				return fmt.Errorf("PIEDecode: %v", err)
			}
			return nil
		}, nil
	}},
	{"phy.unmarshal_ul_ns", "phy.unmarshal_ul", 50_000, 1, func(r *sim.Rand) (func(int) error, error) {
		pkts, frames, err := seededPackets(r)
		if err != nil {
			return nil, err
		}
		return func(i int) error {
			k := i % len(frames)
			got, err := phy.UnmarshalUL(frames[k])
			if err != nil || got != pkts[k] {
				return fmt.Errorf("UnmarshalUL: %v", err)
			}
			return nil
		}, nil
	}},
	{"dsp.synth_ul_baseband_us", "dsp.synth_ul_baseband", 500, 1e-3, func(r *sim.Rand) (func(int) error, error) {
		_, chips, p, err := seededCaptures(r)
		if err != nil {
			return nil, err
		}
		rng := sim.NewRand(r.Uint64())
		return func(i int) error {
			if out := dsp.SynthesizeULBaseband(chips[i%len(chips)], ulSPC, p, rng); len(out) == 0 {
				return fmt.Errorf("SynthesizeULBaseband: empty capture")
			}
			return nil
		}, nil
	}},
	{"dsp.decode_ul_baseband_us", "dsp.decode_ul_baseband", 500, 1e-3, func(r *sim.Rand) (func(int) error, error) {
		pkts, chips, p, err := seededCaptures(r)
		if err != nil {
			return nil, err
		}
		caps := make([][]float64, len(chips))
		for i := range chips {
			caps[i] = dsp.SynthesizeULBaseband(chips[i], ulSPC, p, r)
		}
		return func(i int) error {
			k := i % len(caps)
			got, err := dsp.DecodeULFromBaseband(caps[k], ulSPC)
			if err != nil || got != pkts[k] {
				return fmt.Errorf("DecodeULFromBaseband = %+v, %v; want %+v", got, err, pkts[k])
			}
			return nil
		}, nil
	}},
	{"mac.step_ns", "mac.step", 64, 1.0 / 2048, func(r *sim.Rand) (func(int) error, error) {
		// One op acquires a c3 or c9 simulator from its snapshot and
		// steps it 2048 slots; scale reports ns per step.
		var snaps []*mac.SlotSimSnapshot
		for _, p := range mac.Table3Patterns() {
			if p.Name == "c3" || p.Name == "c9" {
				sn, err := mac.NewSlotSimSnapshot(mac.SlotSimConfig{Pattern: p})
				if err != nil {
					return nil, err
				}
				snaps = append(snaps, sn)
			}
		}
		seeds := make([]uint64, 64)
		for i := range seeds {
			seeds[i] = r.Uint64()
		}
		return func(i int) error {
			sn := snaps[i%len(snaps)]
			s := sn.Acquire(seeds[i%len(seeds)], nil, nil)
			for k := 0; k < 2048; k++ {
				s.Step()
			}
			sn.Release(s)
			return nil
		}, nil
	}},
	{"wire.event_encode_ns", "wire.event_encode", 100_000, 1, func(r *sim.Rand) (func(int) error, error) {
		evs := seededEvents(r)
		buf := make([]byte, 0, 4096)
		return func(i int) error {
			buf = obs.AppendEvent(buf[:0], &evs[i%len(evs)])
			if len(buf) == 0 {
				return fmt.Errorf("AppendEvent: empty frame")
			}
			return nil
		}, nil
	}},
	{"wire.event_decode_ns", "wire.event_decode", 100_000, 1, func(r *sim.Rand) (func(int) error, error) {
		evs := seededEvents(r)
		frames := make([][]byte, len(evs))
		for i := range evs {
			frames[i] = obs.AppendEvent(nil, &evs[i])
		}
		var ev obs.Event
		return func(i int) error {
			k := i % len(frames)
			if _, err := obs.UnmarshalEvent(frames[k], &ev); err != nil || ev.Kind != evs[k].Kind || ev.Slot != evs[k].Slot {
				return fmt.Errorf("UnmarshalEvent: %v", err)
			}
			return nil
		}, nil
	}},
	{"fleet.outcome_encode_ns", "fleet.outcome_encode", 50_000, 1, func(r *sim.Rand) (func(int) error, error) {
		outs := seededOutcomes(r, 32)
		buf := make([]byte, 0, 4096)
		return func(i int) error {
			buf = fleet.AppendJobOutcome(buf[:0], &outs[i%len(outs)])
			if len(buf) == 0 {
				return fmt.Errorf("AppendJobOutcome: empty frame")
			}
			return nil
		}, nil
	}},
	{"fleetd.ckpt_encode_us", "fleetd.ckpt_encode", 500, 1e-3, func(r *sim.Rand) (func(int) error, error) {
		rec, err := seededCheckpoint(r)
		if err != nil {
			return nil, err
		}
		var buf []byte
		return func(int) error {
			buf = fleetd.AppendCheckpoint(buf[:0], &rec)
			if len(buf) == 0 {
				return fmt.Errorf("AppendCheckpoint: empty record")
			}
			return nil
		}, nil
	}},
}

// runProbe times one probe: probeReps loops of p.iters ops, under one
// span covering every op.
func runProbe(ctx context.Context, p probe, seed uint64, tr *tracer) (float64, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	op, err := p.setup(sim.NewRand(seed))
	if err != nil {
		return 0, 0, fmt.Errorf("%s: set-up: %w", p.metric, err)
	}
	if err := op(0); err != nil { // warm caches and pools outside the timed loops
		return 0, 0, fmt.Errorf("%s: %w", p.metric, err)
	}
	sp := tr.begin(p.span, 0, 0)
	perOp := make([]float64, probeReps)
	for rep := range perOp {
		start := wallNow()
		for i := 0; i < p.iters; i++ {
			if err := op(i); err != nil {
				sp.endCalls(rep*p.iters + i + 1)
				return 0, rep*p.iters + i + 1, fmt.Errorf("%s: %w", p.metric, err)
			}
		}
		perOp[rep] = float64(since(start).Nanoseconds()) / float64(p.iters)
	}
	sp.endCalls(probeReps * p.iters)
	return median(perOp) * p.scale, probeReps * p.iters, nil
}

// ladderPass runs every probe, then a short traced pass of every
// other workload, so that each traced run prints every per-layer
// metric: the workload's own layers from its full-size traced pass
// (which wins when the results are merged), every other layer from
// here.
func ladderPass(ctx context.Context, o options) (passResult, error) {
	tr := newTracer(8192)
	res := passResult{Layer: map[string]float64{}}
	r := sim.NewRand(o.seed ^ 0x1add3)
	for _, p := range ladder {
		v, ops, err := runProbe(ctx, p, r.Uint64(), tr)
		res.Attempted += ops
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
			continue
		}
		res.Layer[p.metric] = v
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		if n != o.workload {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		so := o
		so.workload, so.short = n, true
		pr, err := workloads[n].pass(ctx, so, tr)
		if err != nil {
			return res, fmt.Errorf("short %s: %w", n, err)
		}
		res.Attempted += pr.Attempted
		res.Failed += pr.Failed
		for _, e := range pr.Errors {
			res.Errors = append(res.Errors, n+": "+e)
		}
		for k, v := range pr.Layer {
			res.Layer[k] = v
		}
	}
	spans := tr.snapshot()
	res.Errors = append(res.Errors, checkNesting(spans)...)
	for k, v := range layerTotals(spans) {
		res.Layer[k] = v
	}
	return res, nil
}

// Inputs drawn from the workload seed.

func seededIDs(r *sim.Rand, n int) []int {
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = 1 + r.Intn(n)
	}
	return ids
}

func seededPackets(r *sim.Rand) ([]phy.ULPacket, []phy.Bits, error) {
	var pkts []phy.ULPacket
	var frames []phy.Bits
	for i := 0; i < 64; i++ {
		p := phy.ULPacket{TID: uint8(r.Intn(phy.MaxTags)), Payload: uint16(r.Intn(1 << phy.PayloadBits))}
		f, err := p.Marshal()
		if err != nil {
			return nil, nil, err
		}
		pkts = append(pkts, p)
		frames = append(frames, f)
	}
	return pkts, frames, nil
}

func seededFrames(r *sim.Rand) ([]phy.Bits, error) {
	_, frames, err := seededPackets(r)
	return frames, err
}

// ulSPC is the probes' samples per chip, as the waveform link model
// uses.
const ulSPC = 8

// seededCaptures returns UL packets, their FM0 chip streams padded
// with idle chips as a burst is on air, and clean synthesis
// parameters under which every capture decodes.
func seededCaptures(r *sim.Rand) ([]phy.ULPacket, []phy.Bits, dsp.ULSynthParams, error) {
	pkts, frames, err := seededPackets(r)
	if err != nil {
		return nil, nil, dsp.ULSynthParams{}, err
	}
	pkts, frames = pkts[:16], frames[:16]
	chips := make([]phy.Bits, len(frames))
	for i, f := range frames {
		c := append(make(phy.Bits, 4), phy.FM0Encode(f, 0)...)
		chips[i] = append(c, make(phy.Bits, 2)...)
	}
	const rate = 3000.0
	p := dsp.ULSynthParams{CarrierHz: 90_000, Fs: rate * ulSPC, ChipRate: rate,
		Leakage: 0.2, Backscatter: 0.1, NoiseRMS: 0.002}
	return pkts, chips, p, nil
}

func seededEvents(r *sim.Rand) []obs.Event {
	evs := make([]obs.Event, 64)
	for i := range evs {
		slot := r.Intn(1 << 20)
		switch r.Intn(3) {
		case 0:
			evs[i] = obs.Event{Kind: obs.KindSlotOpen, Slot: slot, ACK: r.Bool(0.5)}
		case 1:
			evs[i] = obs.Event{Kind: obs.KindSlotClose, Slot: slot, TIDs: []int{1 + r.Intn(12), 1 + r.Intn(12)},
				Decoded: []int{1 + r.Intn(12)}, Collision: r.Bool(0.3)}
		default:
			evs[i] = obs.Event{Kind: obs.KindTagSettle, Slot: slot, TID: 1 + r.Intn(12), Period: 1 << (1 + r.Intn(5)), Offset: r.Intn(16)}
		}
	}
	return evs
}

func seededOutcomes(r *sim.Rand, n int) []fleet.JobOutcome {
	outs := make([]fleet.JobOutcome, n)
	for i := range outs {
		outs[i] = fleet.JobOutcome{
			JobInfo: fleet.JobInfo{Index: i, Name: fmt.Sprintf("v%03d-c%d", i, 1+r.Intn(9)), Seed: r.Uint64()},
			Status:  fleet.StatusOK,
			Result: fleet.Result{
				Metrics: map[string]float64{
					"convergence_slots": float64(r.Intn(5000)), "nonempty_ratio": r.Float64(), "collision_ratio": r.Float64() / 10,
				},
				Counters: map[string]uint64{"slots": uint64(2000 + r.Intn(10_000)), "decoded": uint64(r.Intn(10_000))},
			},
			Elapsed: time.Duration(r.Intn(int(10 * time.Millisecond))),
		}
	}
	return outs
}

// seededCheckpoint is a done-job record: spec, outcomes and report
// of a 16-vehicle fleet.
func seededCheckpoint(r *sim.Rand) (fleetd.Record, error) {
	outs := seededOutcomes(r, 16)
	rep := fleet.Report{Workers: 2, Jobs: outs, Completed: len(outs)}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		return fleetd.Record{}, err
	}
	spec, err := fleetdSpec(r, 0, newDeck(r, 1, 2, 3, 4, 5, 6, 7, 8, 9), newDeck(r, 2000))
	if err != nil {
		return fleetd.Record{}, err
	}
	return fleetd.Record{Version: 2, ID: "job-000001", State: "done", Spec: spec,
		Outcomes: outs, Fingerprint: rep.Fingerprint(), Report: repJSON}, nil
}
