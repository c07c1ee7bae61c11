// Command perfbench is the repository's benchmark. One command runs a
// named workload on inputs drawn from a seed, checks the outputs, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object with keys correct, attempted, failed and
// metrics. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload fleet-slots --seed 1 --seconds 30 --trace 0
//
// Every pass of a workload runs in a fresh child process of this
// binary, so set-up and peak memory are measured as a user pays them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process started by the benchmark to run one pass;
// the tests' TestMain honours it too.
const childEnv = "PERFBENCH_CHILD"

// defaultSeed is the seed whose output digests are pinned.
const defaultSeed = 1

// runBudget caps one benchmark run well inside the 180 s every run
// must end within, whatever --seconds asks.
const runBudget = 150 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	short    bool
	root     string
	work     string
	child    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are drawn from")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "small inputs (tests)")
	fs.StringVar(&o.root, "root", "..", "root of the repository checkout")
	fs.StringVar(&o.work, "work", "", "scratch directory (default <root>/.bench_build/work)")
	fs.StringVar(&o.child, "child", "", "internal: run one pass (pass, traced or ladder) and print it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --trace 0|1, --seconds >= 1\n", workloadNames())
		return 2
	}
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build", "work")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.child != "" {
		return runChild(o, w, stdout, stderr)
	}

	// An interrupt or SIGTERM cancels ctx, which kills the running child
	// pass; the run then waits for it and exits.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, runBudget)
	defer cancel()
	host := newHostRecord(o, w)
	var res result
	var report map[string]any
	var err error
	if o.trace {
		res, report, err = tracedRun(ctx, o, w)
	} else {
		res, report, err = untracedRun(ctx, o, w)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		return 1
	}
	if err := enc.Encode(map[string]any{"workload": o.workload, "seed": o.seed, "report": report}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// passResult is what one child pass prints.
type passResult struct {
	// ReadyUnixNano is when set-up ended and the first timed
	// operation could be issued.
	ReadyUnixNano int64 `json:"ready_unix_ns"`
	// WallS is the host time of the pass's timed work.
	WallS float64 `json:"wall_s"`
	// OpsMS holds the latency of every op that succeeded.
	OpsMS     []float64 `json:"ops_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Digest summarises the pass's outputs; Pinned is the digest
	// pinned for this seed and size, empty when none is.
	Digest string `json:"digest"`
	Pinned string `json:"pinned,omitempty"`
	// Report holds the workload's own figures (slots_per_s, ...).
	Report map[string]float64 `json:"report,omitempty"`
	// Layer holds per-layer metrics (traced and ladder passes).
	Layer  map[string]float64 `json:"layer,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// childPass is one finished child process.
type childPass struct {
	passResult
	SetupS float64
	RSSMB  float64
}

// runChildProcess runs one pass of o.workload in a fresh process.
func runChildProcess(ctx context.Context, o options, mode string) (childPass, error) {
	exe, err := os.Executable()
	if err != nil {
		return childPass{}, err
	}
	args := []string{"-child", mode, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-root", o.root, "-work", o.work}
	if o.short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1") //lint:allow determinism-taint the child pass inherits the run's environment (Go settings, PATH)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := wallNow()
	if err := cmd.Run(); err != nil {
		return childPass{}, fmt.Errorf("%s pass of %s: %w", mode, o.workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var cp childPass
	if err := json.Unmarshal(lines[len(lines)-1], &cp.passResult); err != nil {
		return childPass{}, fmt.Errorf("%s pass of %s: bad output: %w", mode, o.workload, err)
	}
	cp.SetupS = time.Unix(0, cp.ReadyUnixNano).Sub(start).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cp.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cp, nil
}

// runChild is the child side: run one pass and print its result.
func runChild(o options, w workload, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var res passResult
	var err error
	switch o.child {
	case "pass":
		res, err = w.pass(ctx, o, nil)
	case "traced":
		res, err = tracedPass(ctx, o, w)
	case "ladder":
		res, err = ladderPass(ctx, o)
	default:
		err = fmt.Errorf("unknown child mode %q", o.child)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s %s: %v\n", o.child, o.workload, err)
		return 1
	}
	// A metric with no samples is NaN, which JSON cannot carry; leave
	// it out so the parent reports it as not measured.
	for k, v := range res.Layer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(res.Layer, k)
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s %s: %v\n", o.child, o.workload, err)
		return 1
	}
	return 0
}

// tracedPass runs one pass of w with tracing on and derives its
// per-layer metrics from the spans.
func tracedPass(ctx context.Context, o options, w workload) (passResult, error) {
	tr := newTracer(4096)
	res, err := w.pass(ctx, o, tr)
	if err != nil {
		return res, err
	}
	spans := tr.snapshot()
	res.Errors = append(res.Errors, checkNesting(spans)...)
	for k, v := range layerTotals(spans) {
		res.Layer[k] = v
	}
	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	return res, writeSpans(path, spans)
}

// check folds a pass's output checks into the run's counts: a pass
// whose digest differs from the pinned one, or from the run's first
// pass, fails every op it attempted.
func check(passes []childPass) (attempted, failed int, problems []string) {
	for i, p := range passes {
		attempted += p.Attempted
		failed += p.Failed
		bad := append([]string(nil), p.Errors...)
		if p.Pinned != "" && p.Digest != p.Pinned {
			bad = append(bad, fmt.Sprintf("digest %s, pinned %s", p.Digest, p.Pinned))
		}
		if p.Digest != passes[0].Digest {
			bad = append(bad, fmt.Sprintf("digest %s differs from the first pass's %s", p.Digest, passes[0].Digest))
		}
		if len(bad) > 0 {
			failed += p.Attempted - p.Failed
			for _, b := range bad {
				problems = append(problems, fmt.Sprintf("pass %d: %s", i, b))
			}
		}
	}
	return attempted, failed, problems
}

// untracedRun runs passes for o.seconds (at least w.minPasses) and
// reports the end-to-end metrics.
func untracedRun(ctx context.Context, o options, w workload) (result, map[string]any, error) {
	start := wallNow()
	budget := time.Duration(o.seconds) * time.Second
	var passes []childPass
	var last time.Duration
	for {
		// After the minimum, start another pass only while it would end
		// nearer the budget than stopping now, and well inside runBudget.
		el := since(start)
		if len(passes) >= w.minPasses && (el+last/2 >= budget || el+2*last > runBudget) {
			break
		}
		t0 := wallNow()
		p, err := runChildProcess(ctx, o, "pass")
		if err != nil {
			return result{}, nil, err
		}
		last = since(t0)
		passes = append(passes, p)
	}
	attempted, failed, problems := check(passes)
	var setups, walls, rss, p50s, p99s []float64
	ops := 0
	for _, p := range passes {
		setups = append(setups, p.SetupS)
		walls = append(walls, p.WallS)
		rss = append(rss, p.RSSMB)
		// An op that did not succeed counts as missing every latency
		// limit.
		lat := append([]float64(nil), p.OpsMS...)
		for len(lat) < p.Attempted {
			lat = append(lat, math.Inf(1))
		}
		p50s = append(p50s, percentile(lat, 0.50))
		p99s = append(p99s, percentile(lat, 0.99))
		ops += len(lat)
	}
	m := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"peak_rss_mb": median(rss),
	}
	report := summarise(passes, problems)
	report["ops"] = ops
	// Op latency is printed, not gated: on the batch workloads the user
	// waits for the whole pass (wall_s), and its tail swings with the
	// host by more than any bound.
	report["latency_p50_ms"] = median(p50s)
	report["latency_p99_ms"] = median(p99s)
	report["error_ratio"] = float64(failed) / float64(max(attempted, 1))
	return finish(m, endToEnd, attempted, failed, problems), report, nil
}

// tracedRun runs one untraced reference pass, one traced pass and the
// layer ladder, and reports the per-layer metrics.
func tracedRun(ctx context.Context, o options, w workload) (result, map[string]any, error) {
	ref, err := runChildProcess(ctx, o, "pass")
	if err != nil {
		return result{}, nil, err
	}
	traced, err := runChildProcess(ctx, o, "traced")
	if err != nil {
		return result{}, nil, err
	}
	ladder, err := runChildProcess(ctx, o, "ladder")
	if err != nil {
		return result{}, nil, err
	}
	passes := []childPass{ref, traced}
	attempted, failed, problems := check(passes)
	attempted += ladder.Attempted
	failed += ladder.Failed
	for _, e := range ladder.Errors {
		problems = append(problems, "ladder: "+e)
	}
	// The workload's own traced pass wins over the ladder for every
	// metric, and for every layer, it measured.
	own := map[string]bool{}
	for k := range traced.Layer {
		if l, ok := traceLayerOf(k); ok {
			own[l] = true
		}
	}
	m := map[string]float64{}
	for k, v := range ladder.Layer {
		if l, ok := traceLayerOf(k); !ok || !own[l] {
			m[k] = v
		}
	}
	for k, v := range traced.Layer {
		m[k] = v
	}
	m["bench.trace_overhead_ratio"] = traced.WallS / ref.WallS
	report := summarise(passes, problems)
	report["ladder_attempted"] = ladder.Attempted
	return finish(m, perLayer, attempted, failed, problems), report, nil
}

// traceLayerOf returns the layer of a trace.<layer>.* metric name.
func traceLayerOf(name string) (string, bool) {
	rest, ok := strings.CutPrefix(name, "trace.")
	if !ok {
		return "", false
	}
	l, _, ok := strings.Cut(rest, ".")
	return l, ok
}

// finish builds the result line from the measured values: every
// metric in defs must be present and finite, or the run is incorrect.
func finish(m map[string]float64, defs []metricDef, attempted, failed int, problems []string) result {
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s not measured", d.Name))
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = len(problems) == 0 && failed == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return res
}

// summarise gathers the passes' digests and the workload's own
// figures (medians over passes) for the report line.
func summarise(passes []childPass, problems []string) map[string]any {
	digests := map[string]bool{}
	figures := map[string][]float64{}
	var walls, setups []float64
	for _, p := range passes {
		digests[p.Digest] = true
		for k, v := range p.Report {
			figures[k] = append(figures[k], v)
		}
		walls = append(walls, p.WallS)
		setups = append(setups, p.SetupS)
	}
	out := map[string]any{"passes": len(passes)}
	var ds []string
	for d := range digests {
		ds = append(ds, d)
	}
	sort.Strings(ds)
	out["digests"] = ds
	if len(passes) > 0 && passes[0].Pinned != "" {
		out["pinned"] = passes[0].Pinned
	}
	for k, vs := range figures {
		out[k] = median(vs)
	}
	out["pass_wall_s"] = walls
	out["pass_setup_s"] = setups
	if len(problems) > 0 {
		out["problems"] = problems[:min(len(problems), 10)]
	}
	return out
}
