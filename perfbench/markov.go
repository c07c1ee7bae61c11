package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/mac"
)

// markovPeriods is the Appendix C chain markov-proof verifies: mid-size
// at full size, an Appendix C case in short mode. It has no
// random input, so the seed is ignored.
func markovPeriods(short bool) []mac.Period {
	if short {
		return []mac.Period{2, 4, 4}
	}
	return []mac.Period{4, 4, 8, 8}
}

// markovPass verifies one chain from scratch (no factorization
// cache): enumerate, Lemmas 1 and 2, factor, solve. An op is one of
// those five stages; the digest pins the state and absorbing counts,
// the lemma results and the bits of the mean and worst absorption
// times.
func markovPass(ctx context.Context, o options, tr *tracer) (passResult, error) {
	res := newPassResult(tr)
	periods := markovPeriods(o.short)
	ready(&res)
	root := tr.begin("core.proof", 0, 1)
	start := wallNow()
	stage := func(name string, fn func() error) (time.Duration, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		sp := tr.begin("core."+name, root.id(), 1)
		t0 := wallNow()
		err := fn()
		el := since(t0)
		sp.end()
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", name, err))
		} else {
			res.OpsMS = append(res.OpsMS, ms(el))
		}
		return el, err
	}
	var m *core.Model
	var f *core.Factorization
	var mean, worst float64
	var l1, l2 error
	enum, err := stage("enumerate", func() (err error) {
		m, err = core.NewModel(periods, mac.DefaultNackThreshold)
		return err
	})
	if err != nil {
		return res, err
	}
	lemma1, _ := stage("lemma1", func() error { l1 = m.VerifyLemma1(); return l1 })
	lemma2, _ := stage("lemma2", func() error { l2 = m.VerifyLemma2(); return l2 })
	factor, err := stage("factor", func() (err error) {
		f, err = m.Factor()
		return err
	})
	if err != nil {
		return res, err
	}
	solve, err := stage("solve", func() (err error) {
		mean, worst, err = f.ExpectedAbsorptionSlots()
		return err
	})
	if err != nil {
		return res, err
	}
	wall := since(start)
	root.end()
	res.WallS = wall.Seconds()
	if math.IsNaN(mean) || math.IsInf(mean, 0) || worst < mean {
		res.Errors = append(res.Errors, fmt.Sprintf("absorption times mean %v worst %v", mean, worst))
	}
	res.Digest = fmt.Sprintf("states=%d absorbing=%d lemma1=%s lemma2=%s mean=%016x worst=%016x",
		m.NumStates(), len(m.AbsorbingStates()), okOr(l1), okOr(l2),
		math.Float64bits(mean), math.Float64bits(worst))
	res.Pinned = pinnedDigest("markov-proof", o)
	states := float64(m.NumStates())
	res.Report["states"] = states
	res.Report["mean_slots"] = mean
	res.Report["worst_slots"] = worst
	if tr != nil {
		l := res.Layer
		l["core.enumerate_s"] = enum.Seconds()
		l["core.lemmas_s"] = (lemma1 + lemma2).Seconds()
		l["core.factor_s"] = factor.Seconds()
		l["core.solve_s"] = solve.Seconds()
		l["core.states"] = states
		l["core.ns_per_state"] = float64(wall.Nanoseconds()) / states
	}
	return res, nil
}

func okOr(err error) string {
	if err != nil {
		return "FAIL"
	}
	return "ok"
}
