package main

import (
	"context"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	// minPasses is the fewest passes an untraced run makes, so that
	// its medians rest on several samples whatever --seconds is.
	minPasses int
	// clients and workers are the load put on the program.
	clients, workers int
	// pass runs one pass in this process: set-up (ending with
	// ready), then the timed work, then the output checks. tr is nil
	// on untraced passes; a traced pass records spans into tr and
	// fills passResult.Layer.
	pass func(ctx context.Context, o options, tr *tracer) (passResult, error)
}

// nproc is the load limit: at most this many worker goroutines and
// this many connections.
var nproc = runtime.NumCPU()

var workloads = map[string]workload{
	"fleet-slots":    {minPasses: 5, clients: 1, workers: nproc, pass: fleetSlotsPass},
	"fleetd-service": {minPasses: 3, clients: nproc, workers: nproc, pass: fleetdPass},
	"paper-suite":    {minPasses: 3, clients: 1, workers: nproc, pass: suitePass},
	"markov-proof":   {minPasses: 4, clients: 1, workers: 1, pass: markovPass},
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, "|")
}

// ready stamps the end of set-up.
func ready(res *passResult) { res.ReadyUnixNano = wallNow().UnixNano() }

// newPassResult is an empty result; traced passes get a Layer map.
func newPassResult(tr *tracer) passResult {
	res := passResult{Report: map[string]float64{}}
	if tr != nil {
		res.Layer = map[string]float64{}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
