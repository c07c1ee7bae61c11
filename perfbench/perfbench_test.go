package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run starts its child passes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" { //lint:allow determinism-taint selects the child-pass entry point, not an input
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesBenchmark holds BENCHMARK.json and the metric and
// workload lists here in step.
func TestSpecMatchesBenchmark(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q: the benchmark has none (%s)", w.Name, workloadNames())
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
}

// runShort runs one short benchmark run in-process and returns its
// report line and result line.
func runShort(t *testing.T, workload, trace, work string) (map[string]any, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace,
		"--short", "--root", "..", "--work", work}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit %d\n%s", workload, trace, code, errb.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("%s: want report and result lines, got %q", workload, out.String())
	}
	var rep struct {
		Report map[string]any `json:"report"`
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s --trace %s: correct=%v attempted=%d failed=%d\n%s", workload, trace,
			res.Correct, res.Attempted, res.Failed, errb.String())
	}
	return rep.Report, res
}

// TestShortWorkloads runs every workload at short size, untraced and
// traced: each metric BENCHMARK.json names is printed with its unit,
// the default-seed digests match the pinned ones, and the traced
// pass's spans nest with non-negative self times.
func TestShortWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, name := range strings.Split(workloadNames(), "|") {
		t.Run(name, func(t *testing.T) {
			work := t.TempDir()
			rep, res := runShort(t, name, "0", work)
			for _, m := range s.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s and a value > 0", m.Name, v, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(s.EndToEnd) {
				t.Errorf("printed %d end-to-end metrics, want %d", len(res.Metrics), len(s.EndToEnd))
			}
			digests, _ := rep["digests"].([]any)
			want := pinned[name+"/short"]
			if len(digests) != 1 || digests[0] != want {
				t.Errorf("digests %v, pinned %q", digests, want)
			}

			_, res = runShort(t, name, "1", work)
			for _, m := range s.PerLayer {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(s.PerLayer) {
				t.Errorf("printed %d per-layer metrics, want %d", len(res.Metrics), len(s.PerLayer))
			}
			spans := readSpans(t, filepath.Join(work, "spans-"+name+"-seed1.jsonl"))
			if len(spans) == 0 {
				t.Fatal("traced pass recorded no spans")
			}
			if bad := checkNesting(spans); len(bad) > 0 {
				t.Errorf("spans do not nest: %v", bad[:min(len(bad), 5)])
			}
			for id, self := range selfTimes(spans) {
				if self < 0 {
					t.Errorf("span %d: self time %d ns < 0", id, self)
				}
			}
		})
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestSelfTimes checks self time against overlapping and clipped
// children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "fleet.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fleet.job", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "fleet.job", Start: 30, End: 70}, // overlaps job 2
		{ID: 4, Parent: 1, Name: "fleet.job", Start: 80, End: 90},
		{ID: 5, Parent: 2, Name: "mac.step", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 60 - 10, 2: 35, 3: 40, 4: 10, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if bad := checkNesting(spans); len(bad) != 0 {
		t.Errorf("nested spans reported: %v", bad)
	}
	spans = append(spans, span{ID: 6, Parent: 4, Name: "mac.step", Start: 85, End: 95})
	if bad := checkNesting(spans); len(bad) != 1 {
		t.Errorf("span leaving its parent: got %v, want one report", bad)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
