package lint

import (
	"reflect"
	"testing"
)

var escapeManifest = []AllocHotFunc{
	{Pkg: "repro/internal/dsp", File: "internal/dsp/filter.go", Func: "FIR.ProcessBlock", StartLine: 120, EndLine: 148},
	{Pkg: "repro/internal/dsp", File: "internal/dsp/ring.go", Func: "Ring.Push", StartLine: 60, EndLine: 90},
}

// TestParseEscapeDiagnostics maps canned -gcflags=-m output into gate
// entries: only escape diagnostics inside annotated line ranges count,
// and entries are line-number-free so unrelated edits don't churn the
// baseline.
func TestParseEscapeDiagnostics(t *testing.T) {
	output := `# repro/internal/dsp
internal/dsp/filter.go:125:13: make([]float64, n) escapes to heap:
internal/dsp/filter.go:125:13:   flow: dst = &{storage for make([]float64, n)}:
internal/dsp/filter.go:200:6: make([]float64, n) escapes to heap
internal/dsp/filter.go:130:9: inlining call to dot
internal/dsp/ring.go:65:2: moved to heap: anchor
internal/dsp/ring.go:61:7: leaking param: o
internal/dsp/other.go:10:2: x escapes to heap
not a diagnostic line
`
	got := ParseEscapeDiagnostics(output, escapeManifest)
	want := []string{
		"internal/dsp/filter.go:FIR.ProcessBlock: make([]float64, n) escapes to heap",
		"internal/dsp/ring.go:Ring.Push: moved to heap: anchor",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entries = %q, want %q", got, want)
	}
}

// TestParseEscapeDiagnosticsRelativePaths accepts package-relative
// compiler paths ("filter.go:125") by suffix match.
func TestParseEscapeDiagnosticsRelativePaths(t *testing.T) {
	got := ParseEscapeDiagnostics("./filter.go:125:13: v escapes to heap\n", escapeManifest)
	want := []string{"internal/dsp/filter.go:FIR.ProcessBlock: v escapes to heap"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entries = %q, want %q", got, want)
	}
}

func TestDiffEscapeBaseline(t *testing.T) {
	current := []string{"a.go:F: x escapes to heap", "b.go:G: y escapes to heap"}
	baseline := []string{"a.go:F: x escapes to heap", "c.go:H: gone escapes to heap"}
	added, removed := DiffEscapeBaseline(current, baseline)
	if !reflect.DeepEqual(added, []string{"b.go:G: y escapes to heap"}) {
		t.Errorf("added = %q", added)
	}
	if !reflect.DeepEqual(removed, []string{"c.go:H: gone escapes to heap"}) {
		t.Errorf("removed = %q", removed)
	}
}

func TestParseBaseline(t *testing.T) {
	got := ParseBaseline("# comment\n\nb.go:G: y escapes to heap\na.go:F: x escapes to heap\n")
	want := []string{"a.go:F: x escapes to heap", "b.go:G: y escapes to heap"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entries = %q, want %q", got, want)
	}
}

// TestAllocManifestFixture checks annotation harvesting end to end on
// the fixture module.
func TestAllocManifestFixture(t *testing.T) {
	manifest := AllocManifest(fixtureModule(t))
	byFunc := make(map[string]AllocHotFunc)
	for _, fn := range manifest {
		byFunc[fn.Func] = fn
	}
	acc, ok := byFunc["Accumulate"]
	if !ok {
		t.Fatalf("Accumulate missing from manifest: %+v", manifest)
	}
	if acc.File != "dsp/hot.go" || acc.Note == "" || acc.StartLine >= acc.EndLine {
		t.Errorf("bad manifest entry: %+v", acc)
	}
	if _, ok := byFunc["BenchHelper"]; ok {
		t.Error("test-file annotation harvested into the manifest")
	}
	if _, ok := byFunc["floating"]; ok {
		t.Error("floating annotation harvested into the manifest")
	}
}
