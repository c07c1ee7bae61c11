package main

import (
	"context"
	"fmt"

	"repro/experiments"
)

// suiteSizes are arachnet-experiments' sample counts: the defaults,
// or its -quick sizes in short mode.
type suiteSizes struct{ seeds, packets, slots int }

// experimentDef is one experiment arachnet-experiments runs, called
// through its experiments.Run* function.
type experimentDef struct {
	name string
	run  func(seed uint64, sz suiteSizes) (experiments.Table, error)
}

// suite mirrors cmd/arachnet-experiments: the same experiments, order
// and arguments.
var suite = []experimentDef{
	{"table1", func(uint64, suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunTable1()
		return tb, err
	}},
	{"table2", func(seed uint64, _ suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunTable2(seed)
		return tb, err
	}},
	{"table3", func(uint64, suiteSizes) (experiments.Table, error) {
		_, tb := experiments.RunTable3()
		return tb, nil
	}},
	{"fig11a", func(uint64, suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig11a()
		return tb, err
	}},
	{"fig11b", func(uint64, suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig11b()
		return tb, err
	}},
	{"fig12a", func(seed uint64, _ suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig12a(seed)
		return tb, err
	}},
	{"fig12b", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig12b(seed, sz.packets)
		return tb, err
	}},
	{"fig13a", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig13a(seed, sz.packets)
		return tb, err
	}},
	{"fig13b", func(seed uint64, _ suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig13b(seed)
		return tb, err
	}},
	{"fig14", func(seed uint64, _ suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig14(seed)
		return tb, err
	}},
	{"fig15a", func(_ uint64, sz suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig15a(sz.seeds)
		return tb, err
	}},
	{"fig15b", func(_ uint64, sz suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig15b(sz.seeds)
		return tb, err
	}},
	{"fig16", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig16(seed, sz.slots)
		return tb, err
	}},
	{"fig17", func(uint64, suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig17()
		return tb, err
	}},
	{"fig19", func(seed uint64, _ suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunFig19(seed)
		return tb, err
	}},
	{"appendixc", func(uint64, suiteSizes) (experiments.Table, error) {
		return experiments.RunAppendixC()
	}},
	{"aloha-vs", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunAlohaVsDistributed(seed, sz.slots)
	}},
	{"ablation-vanilla", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunAblationVanillaVsDistributed(seed, sz.slots, 0.001)
	}},
	{"ablation-timer", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunAblationBeaconLossTimer(seed, sz.slots, 0.005)
	}},
	{"ablation-empty", func(_ uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunAblationEmptyGate(sz.seeds / 2)
	}},
	{"ablation-future", func(_ uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunAblationFutureCollision(sz.seeds / 2)
	}},
	{"ablation-nack", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunAblationNackThreshold(seed, sz.slots)
	}},
	{"ablation-interrupt", func(uint64, suiteSizes) (experiments.Table, error) {
		return experiments.RunAblationInterruptDriven(), nil
	}},
	{"dl-scheme", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		_, tb, err := experiments.RunDLSchemeStudy(seed, sz.packets/2)
		return tb, err
	}},
	{"multi-reader", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunMultiReaderStudy(seed, sz.slots)
	}},
	{"ambient", func(uint64, suiteSizes) (experiments.Table, error) {
		return experiments.RunAmbientHarvestStudy()
	}},
	{"budget", func(uint64, suiteSizes) (experiments.Table, error) {
		return experiments.RunBudgetTable()
	}},
	{"crossval", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunModeCrossValidation(seed, sz.slots/10)
	}},
	{"fig15-net", func(seed uint64, sz suiteSizes) (experiments.Table, error) {
		return experiments.RunFig15Network(seed, sz.seeds/2)
	}},
}

// suiteSeed is the seed paper-suite always passes: the default of
// arachnet-experiments, the run a reproducer waits on. The workload
// ignores --seed because the suite's own run time depends on it
// (fig15-net and dl-scheme run until a random event) by more than any
// bound this benchmark could hold.
const suiteSeed = 1

// suitePass runs every experiment once, in order, in this fresh
// process (cold caches). An op is one experiment; the digest hashes
// every rendered table.
func suitePass(ctx context.Context, o options, tr *tracer) (passResult, error) {
	res := newPassResult(tr)
	sz := suiteSizes{seeds: 21, packets: 1000, slots: 10_000}
	if o.short {
		sz = suiteSizes{seeds: 7, packets: 200, slots: 2000}
	}
	ready(&res)
	root := tr.begin("experiments.suite", 0, 0)
	var tables []string
	start := wallNow()
	for i, e := range suite {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		sp := tr.begin("experiments."+e.name, root.id(), int64(i)+1)
		t0 := wallNow()
		tb, err := e.run(suiteSeed, sz)
		el := since(t0)
		sp.end()
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", e.name, err))
			tables = append(tables, e.name+": error")
			continue
		}
		res.OpsMS = append(res.OpsMS, ms(el))
		tables = append(tables, tb.String())
		if tr != nil {
			res.Layer["experiments."+e.name+"_s"] = el.Seconds()
		}
	}
	res.WallS = since(start).Seconds()
	root.end()
	res.Digest = digestLines(tables)
	res.Pinned = pinnedDigest("paper-suite", o)
	res.Report["experiments"] = float64(len(suite))
	return res, nil
}
