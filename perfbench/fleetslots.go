package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/arachnet"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// fleetSlotsFleet draws the fleet-slots population from the seed.
// The mix is fixed so that every seed asks for the same work: each
// Table 3 pattern c1..c9 at each slot horizon, three vehicles apiece,
// each vehicle replicated into a seed sweep; two of the three vehicles
// at the middle horizon carry a random fault plan (about one vehicle in
// eight). The seed draws the fleet seed the job seeds derive from, the
// fault plans and the vehicle order. Full size is 1080 jobs averaging
// 10k slots.
func fleetSlotsFleet(seed uint64, short bool) arachnet.Fleet {
	r := sim.NewRand(seed ^ 0xf1ee7)
	copies, replicas := 3, 8
	horizons := []int{6000, 8000, 10_000, 12_000, 14_000}
	if short {
		copies, replicas = 1, 4
		horizons = []int{1500, 2000, 2500}
	}
	var vs []arachnet.VehicleSpec
	for p := 1; p <= 9; p++ {
		for hi, h := range horizons {
			for c := 0; c < copies; c++ {
				v := arachnet.VehicleSpec{Pattern: fmt.Sprintf("c%d", p), Slots: h, Replicate: replicas}
				v.Name = fmt.Sprintf("%s-%d-%d", v.Pattern, h, c)
				if hi == len(horizons)/2 && c < max(1, copies-1) {
					plan := faults.RandomPlan(r.Uint64())
					v.Faults = &plan
					v.Name += "-chaos"
				}
				vs = append(vs, v)
			}
		}
	}
	f := arachnet.Fleet{Seed: r.Uint64(), Workers: nproc}
	for _, i := range r.Perm(len(vs)) {
		f.Vehicles = append(f.Vehicles, vs[i])
	}
	return f
}

// fleetSlotsPass compiles the fleet (set-up: job specs and slot-sim
// snapshots) and runs it once through fleet.Run. An op is one vehicle
// job; the digest is the report fingerprint.
func fleetSlotsPass(ctx context.Context, o options, tr *tracer) (passResult, error) {
	res := newPassResult(tr)
	f := fleetSlotsFleet(o.seed, o.short)
	compile := tr.begin("arachnet.compile", 0, 0)
	specs, err := f.Jobs()
	compileSpan := compile.end()
	if err != nil {
		return res, err
	}
	var jobs *jobTrace
	if tr != nil {
		jobs = wrapJobs(tr, specs)
	}
	ready(&res)

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	runSpan := tr.begin("fleet.run", 0, 0)
	if jobs != nil {
		jobs.parent = runSpan.id()
	}
	start := wallNow()
	rep, err := fleet.Run(ctx, fleet.Config{Workers: f.Workers, Seed: f.Seed, JobTimeout: f.JobTimeout}, specs)
	wall := since(start)
	runEnd := runSpan.end()
	if tr != nil {
		runtime.ReadMemStats(&after)
	}
	if err != nil {
		return res, err
	}
	res.WallS = wall.Seconds()
	res.Attempted = len(rep.Jobs)
	for _, j := range rep.Jobs {
		if j.Status == fleet.StatusOK {
			res.OpsMS = append(res.OpsMS, ms(j.Elapsed))
		} else {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("job %d (%s): %s %s", j.Index, j.Name, j.Status, j.Err))
		}
	}
	res.Digest = rep.Fingerprint()
	res.Pinned = pinnedDigest("fleet-slots", o)
	slots := float64(rep.Counters[arachnet.FleetCounterSlots])
	res.Report["jobs"] = float64(len(rep.Jobs))
	res.Report["vehicle_slots"] = slots
	res.Report["slots_per_s"] = slots / wall.Seconds()

	if tr != nil {
		spans := tr.snapshot()
		l := res.Layer
		l["arachnet.fleet_compile_ms"] = float64(compileSpan.dur()) / 1e6
		jobMS := durationsMS(spans, "fleet.job")
		l["fleet.job_ms_p50"] = percentile(jobMS, 0.50)
		l["fleet.job_ms_p99"] = percentile(jobMS, 0.99)
		l["fleet.worker_busy_ratio"] = sum(jobMS) / (float64(runEnd.dur()) / 1e6 * float64(f.Workers))
		var lastStart int64
		for _, s := range spans {
			if s.Name == "fleet.job" && s.Start > lastStart {
				lastStart = s.Start
			}
		}
		l["fleet.tail_ms"] = float64(runEnd.End-lastStart) / 1e6
		l["fleet.allocs_per_job"] = float64(after.Mallocs-before.Mallocs) / float64(len(specs))
		jobs.fold(l)
	}
	return res, nil
}

// jobTrace wraps every job's run function in a fleet.job span and
// tallies the per-job counters the mac and faults metrics need.
type jobTrace struct {
	parent int64
	// Per job index: chaos flag, slots simulated, run time (ns).
	chaos []bool
	slots []uint64
	ns    []int64
}

func wrapJobs(tr *tracer, specs []fleet.JobSpec) *jobTrace {
	jt := &jobTrace{chaos: make([]bool, len(specs)),
		slots: make([]uint64, len(specs)), ns: make([]int64, len(specs))}
	for i := range specs {
		jt.chaos[i] = strings.Contains(specs[i].Name, "-chaos")
		run := specs[i].Run
		specs[i].Run = func(ctx context.Context, job fleet.JobInfo) (fleet.Result, error) {
			sp := tr.begin("fleet.job", jt.parent, int64(job.Index)+1)
			r, err := run(ctx, job)
			s := sp.end()
			// Each index is written by the one worker running it and
			// read after fleet.Run returns.
			jt.ns[job.Index] = s.dur()
			jt.slots[job.Index] = r.Counters[arachnet.FleetCounterSlots]
			return r, err
		}
	}
	return jt
}

// fold adds mac.ns_per_slot (plain jobs) and faults.chaos_job_ms_p50.
func (jt *jobTrace) fold(l map[string]float64) {
	var plainNS, plainSlots float64
	var chaosMS []float64
	for i := range jt.ns {
		if jt.chaos[i] {
			chaosMS = append(chaosMS, float64(jt.ns[i])/1e6)
			continue
		}
		plainNS += float64(jt.ns[i])
		plainSlots += float64(jt.slots[i])
	}
	l["mac.ns_per_slot"] = plainNS / plainSlots
	l["faults.chaos_job_ms_p50"] = percentile(chaosMS, 0.50)
}
