package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints and its unit. The
// lists below are the ones BENCHMARK.json declares; the tests hold the
// two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// arachnet / fleet (fleet-slots)
		{"arachnet.fleet_compile_ms", "ms"},
		{"fleet.job_ms_p50", "ms"},
		{"fleet.job_ms_p99", "ms"},
		{"fleet.worker_busy_ratio", "ratio"},
		{"fleet.tail_ms", "ms"},
		{"fleet.allocs_per_job", "count"},
		{"mac.ns_per_slot", "ns"},
		{"faults.chaos_job_ms_p50", "ms"},
		// fleetd (fleetd-service)
		{"fleetd.submit_ms_p50", "ms"},
		{"fleetd.submit_ms_p99", "ms"},
		{"fleetd.queue_wait_ms_p99", "ms"},
		{"fleetd.run_ms_p50", "ms"},
		{"fleetd.stream_tail_ms_p50", "ms"},
		{"fleetd.report_ms_p50", "ms"},
		{"fleetd.list_ms_p99", "ms"},
		{"fleetd.cache_hit_ratio", "ratio"},
		{"fleetd.rejected_ratio", "ratio"},
		{"fleetd.ckpt_write_ms_p50", "ms"},
		{"fleetd.ckpt_write_ms_p99", "ms"},
		{"fleetd.ckpt_writes_per_job", "count"},
		{"fleetd.ckpt_bytes_per_job", "bytes"},
	}
	// experiments (paper-suite)
	for _, e := range suite {
		defs = append(defs, metricDef{"experiments." + e.name + "_s", "s"})
	}
	defs = append(defs,
		// core (markov-proof)
		metricDef{"core.enumerate_s", "s"},
		metricDef{"core.lemmas_s", "s"},
		metricDef{"core.factor_s", "s"},
		metricDef{"core.solve_s", "s"},
		metricDef{"core.states", "count"},
		metricDef{"core.ns_per_state", "ns"},
		// layer ladder (every workload)
		metricDef{"biw.tag_loss_ns", "ns"},
		metricDef{"biw.tag_delay_ns", "ns"},
		metricDef{"energy.integrate_ns", "ns"},
		metricDef{"sim.event_ns", "ns"},
		metricDef{"phy.fm0_decode_ns", "ns"},
		metricDef{"phy.pie_decode_ns", "ns"},
		metricDef{"phy.unmarshal_ul_ns", "ns"},
		metricDef{"dsp.synth_ul_baseband_us", "us"},
		metricDef{"dsp.decode_ul_baseband_us", "us"},
		metricDef{"mac.step_ns", "ns"},
		metricDef{"wire.event_encode_ns", "ns"},
		metricDef{"wire.event_decode_ns", "ns"},
		metricDef{"fleet.outcome_encode_ns", "ns"},
		metricDef{"fleetd.ckpt_encode_us", "us"},
		metricDef{"bench.trace_overhead_ratio", "ratio"},
	)
	for _, l := range traceLayers {
		defs = append(defs,
			metricDef{"trace." + l + ".self_s", "s"},
			metricDef{"trace." + l + ".calls", "count"})
	}
	return defs
}()

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs; +Inf
// entries (failed ops) sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	rank := int(math.Ceil(p*float64(len(cp)))) - 1
	return cp[max(0, min(rank, len(cp)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
