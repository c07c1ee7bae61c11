package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Start and End are nanoseconds since the tracer was made;
// Parent is the span that caused this one (0 for a root) and Req the
// request or job every span of one unit of work shares. Calls is the
// number of calls the span covers: 1 for a single call, the iteration
// count for a probe loop.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name up to its first dot ("fleetd.submit" is in
// layer fleetd).
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the pass ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// wallNow is the benchmark's one read of the host clock; every time it
// reports is a difference of two reads.
func wallNow() time.Time {
	return time.Now() //lint:allow determinism-taint the benchmark measures host wall time; no reading reaches a fingerprint or table
}

func since(t time.Time) time.Duration { return wallNow().Sub(t) }

func newTracer(capacity int) *tracer {
	return &tracer{base: wallNow(), spans: make([]span, 0, capacity)}
}

// now is the tracer clock; callers stamp spans they record by hand.
func (t *tracer) now() int64 { return int64(since(t.base)) }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span named name under parent, for request req.
func (t *tracer) begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: t.now(), Calls: 1}}
}

// id is the open span's ID, for its children (0 when untraced).
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span and keeps it.
func (o openSpan) end() span {
	if o.t == nil {
		return span{}
	}
	o.s.End = o.t.now()
	o.t.add(o.s)
	return o.s
}

// endCalls closes a span that covered n calls (a probe loop).
func (o openSpan) endCalls(n int) span {
	o.s.Calls = int64(n)
	return o.end()
}

// add keeps a finished span, assigning an ID when it has none.
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.next.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot returns the spans kept so far, ordered by start.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. Children may overlap
// one another (the fleet's workers run jobs side by side), so the
// covered part is the union of their intervals.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range cs {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// checkNesting reports spans that end before they start or that leave
// their parent's interval, and parents that were never recorded.
func checkNesting(spans []span) []string {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var bad []string
	for _, s := range spans {
		if s.End < s.Start {
			bad = append(bad, fmt.Sprintf("span %d (%s) ends before it starts", s.ID, s.Name))
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("span %d (%s): parent %d not recorded", s.ID, s.Name, s.Parent))
		case s.Start < p.Start || s.End > p.End:
			bad = append(bad, fmt.Sprintf("span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End))
		}
	}
	return bad
}

// traceLayers are the layers whose self time and call count every
// traced run reports.
var traceLayers = []string{"arachnet", "fleet", "fleetd", "experiments", "core",
	"biw", "energy", "sim", "phy", "dsp", "mac", "wire"}

// layerTotals sums self time (seconds) and calls per layer, as
// trace.<layer>.self_s and trace.<layer>.calls; layers without spans
// are absent.
func layerTotals(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		l := s.layer()
		out["trace."+l+".self_s"] += float64(self[s.ID]) / 1e9
		out["trace."+l+".calls"] += float64(s.Calls)
	}
	return out
}

// durationsMS returns the durations of the spans named name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, one span a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
