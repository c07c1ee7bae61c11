package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/arachnet"
	"repro/internal/fleet"
	"repro/internal/fleetd"
	"repro/internal/fleetd/api"
	"repro/internal/sim"
)

// fleetdLoad is the fleetd-service request list drawn from the seed.
// Request i submits specs[reqs[i]]; in every block of five requests
// one repeats one of the last eight specs (a response-cache hit), and
// in every block of twenty one loop also lists the jobs. The seed
// draws which request of a block does so, which spec repeats, and the
// specs themselves from balanced decks, so every seed asks for the
// same work.
type fleetdLoad struct {
	specs  [][]byte
	reqs   []int
	list   []bool
	warmup int
}

func newFleetdLoad(seed uint64, short bool) (fleetdLoad, error) {
	r := sim.NewRand(seed ^ 0xf1ee7d)
	warmup, timed := 50, 1000
	if short {
		warmup, timed = 10, 40
	}
	patterns := newDeck(r, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	slots := newDeck(r, 1500, 1600, 1700, 1800, 1900, 2000, 2100, 2200, 2300, 2400, 2500)
	ld := fleetdLoad{warmup: warmup}
	var recent []int
	repeatAt, listAt := 0, 0
	for i := 0; i < warmup+timed; i++ {
		if i%5 == 0 {
			repeatAt = i + r.Intn(5)
		}
		if i%20 == 0 {
			listAt = i + r.Intn(20)
		}
		idx := len(ld.specs)
		if i == repeatAt && len(recent) > 0 {
			idx = recent[r.Intn(len(recent))]
		} else {
			spec, err := fleetdSpec(r, idx, patterns, slots)
			if err != nil {
				return ld, err
			}
			ld.specs = append(ld.specs, spec)
			recent = append(recent, idx)
			if len(recent) > 8 {
				recent = recent[1:]
			}
		}
		ld.reqs = append(ld.reqs, idx)
		ld.list = append(ld.list, i == listAt)
	}
	return ld, nil
}

// fleetdSpec is one small fleet: three vehicles of about 2k slots
// each. Vehicle names carry the spec index, which lets the traced pass
// tie the daemon's shard runs back to their request.
func fleetdSpec(r *sim.Rand, idx int, patterns, slots *deck) ([]byte, error) {
	f := arachnet.Fleet{Seed: r.Uint64()}
	for k := 0; k < 3; k++ {
		f.Vehicles = append(f.Vehicles, arachnet.VehicleSpec{
			Name:    fmt.Sprintf("s%d-v%d", idx, k),
			Pattern: fmt.Sprintf("c%d", patterns.draw()),
			Slots:   slots.draw(),
		})
	}
	return arachnet.MarshalFleetJSON(f)
}

// deck deals its values in seed-shuffled rounds, so that every value
// comes up equally often however many are drawn.
type deck struct {
	r    *sim.Rand
	vals []int
	next []int
}

func newDeck(r *sim.Rand, vals ...int) *deck { return &deck{r: r, vals: vals} }

func (d *deck) draw() int {
	if len(d.next) == 0 {
		for _, i := range d.r.Perm(len(d.vals)) {
			d.next = append(d.next, d.vals[i])
		}
	}
	v := d.next[0]
	d.next = d.next[1:]
	return v
}

// specOfShard recovers the spec index from a shard name "s<idx>-v<k>".
func specOfShard(name string) int {
	s, _, _ := strings.Cut(strings.TrimPrefix(name, "s"), "-")
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}

// daemon is one in-process fleetd served on a loopback listener.
type daemon struct {
	srv  *fleetd.Server
	hs   *http.Server
	ln   net.Listener
	dir  string
	done chan error
}

func startDaemon(work string, cfg fleetd.Config) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "fleetd-")
	if err != nil {
		return nil, err
	}
	cfg.CheckpointDir = filepath.Join(dir, "ckpt")
	srv, err := fleetd.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // nothing was submitted; the listen error is the one to report
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, ln: ln, dir: dir, done: make(chan error, 1)}
	//lint:allow goroutine-hygiene Serve returns when stop shuts the server down, and stop waits on done
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *daemon) base() string { return "http://" + d.ln.Addr().String() }

// stop shuts the listener, drains the daemon, waits for the serving
// goroutine and removes the checkpoint directory.
func (d *daemon) stop(ctx context.Context) error {
	herr := d.hs.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	derr := d.srv.Drain(ctx)
	rerr := os.RemoveAll(d.dir)
	// Commit the deletions (and the discards they queue) now, while
	// nothing is timed, so the next pass's fsyncs do not wait on them.
	syscall.Sync()
	return errors.Join(herr, derr, rerr)
}

// fleetdTrace holds the traced pass's server-side observations: shard
// runs seen through Config.WrapJob and checkpoint writes seen through
// Config.FS. Parents are resolved once the pass ends, when every
// request's job ID and interval are known.
type fleetdTrace struct {
	tr     *tracer
	mu     sync.Mutex
	shards []shardSpan
	ckpts  []ckptSpan
	bytes  atomic.Int64
}

type shardSpan struct {
	spec int
	s    span
}

type ckptSpan struct {
	jobID string
	s     span
}

func (ft *fleetdTrace) wrapJob(run fleet.JobFunc) fleet.JobFunc {
	return func(ctx context.Context, job fleet.JobInfo) (fleet.Result, error) {
		start := ft.tr.now()
		r, err := run(ctx, job)
		s := span{Name: "fleetd.shard", Start: start, End: ft.tr.now(), Calls: 1}
		ft.mu.Lock()
		ft.shards = append(ft.shards, shardSpan{spec: specOfShard(job.Name), s: s})
		ft.mu.Unlock()
		return r, err
	}
}

// tracedFS times each checkpoint write from Create to Rename and
// counts the bytes written, passing every call to the real disk.
type tracedFS struct {
	fleetd.FS
	ft      *fleetdTrace
	mu      sync.Mutex
	started map[string]int64
}

func (t *tracedFS) Create(name string) (fleetd.File, error) {
	t.mu.Lock()
	t.started[name] = t.ft.tr.now()
	t.mu.Unlock()
	f, err := t.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, n: &t.ft.bytes}, nil
}

func (t *tracedFS) Rename(oldpath, newpath string) error {
	err := t.FS.Rename(oldpath, newpath)
	end := t.ft.tr.now()
	t.mu.Lock()
	start, ok := t.started[oldpath]
	delete(t.started, oldpath)
	t.mu.Unlock()
	if ok {
		id, _, _ := strings.Cut(filepath.Base(newpath), ".")
		t.ft.mu.Lock()
		t.ft.ckpts = append(t.ft.ckpts, ckptSpan{jobID: id, s: span{Name: "fleetd.ckpt", Start: start, End: end, Calls: 1}})
		t.ft.mu.Unlock()
	}
	return err
}

type countingFile struct {
	fleetd.File
	n *atomic.Int64
}

func (c countingFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// request is one closed-loop submit → stream → report cycle.
type request struct {
	idx, spec    int
	jobID        string
	cached       bool
	rejected     bool
	err          error
	fingerprint  string
	span         span // fleetd.request
	submitReturn int64
	doneLine     int64
}

// fleetdPass starts a daemon with the default config (only the
// checkpoint directory set), then drives it from nproc closed-loop
// clients: a warm-up, then the timed requests. An op is one request,
// submit to report received; the digest covers each spec's report
// fingerprint.
func fleetdPass(ctx context.Context, o options, tr *tracer) (passResult, error) {
	res := newPassResult(tr)
	ld, err := newFleetdLoad(o.seed, o.short)
	if err != nil {
		return res, err
	}
	var cfg fleetd.Config
	var ft *fleetdTrace
	if tr != nil {
		ft = &fleetdTrace{tr: tr}
		cfg.WrapJob = ft.wrapJob
		cfg.FS = &tracedFS{FS: fleetd.OSFS(), ft: ft, started: map[string]int64{}}
	}
	d, err := startDaemon(o.work, cfg)
	if err != nil {
		return res, err
	}
	ready(&res)

	reqs := make([]request, len(ld.reqs))
	fps := make([]string, len(ld.specs))
	var fpMu sync.Mutex
	var listMS []float64
	var next atomic.Int64
	clients := make([]*api.Client, nproc)
	for i := range clients {
		clients[i] = api.NewClient(d.base())
	}
	drive := func(lo, hi int) {
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *api.Client) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi || ctx.Err() != nil {
						return
					}
					rq := &reqs[i]
					rq.idx, rq.spec = i, ld.reqs[i]
					doRequest(ctx, c, tr, ld.specs[rq.spec], rq)
					if rq.err == nil {
						fpMu.Lock()
						if fps[rq.spec] == "" {
							fps[rq.spec] = rq.fingerprint
						} else if fps[rq.spec] != rq.fingerprint {
							rq.err = fmt.Errorf("spec %d: fingerprint %s, first %s", rq.spec, rq.fingerprint, fps[rq.spec])
						}
						fpMu.Unlock()
					}
					if ld.list[i] {
						sp := tr.begin("fleetd.list", 0, int64(i)+1)
						t0 := wallNow()
						_, err := c.List(ctx)
						el := since(t0)
						sp.end()
						if err == nil {
							fpMu.Lock()
							listMS = append(listMS, ms(el))
							fpMu.Unlock()
						}
					}
				}
			}(c)
		}
		wg.Wait()
	}
	drive(0, ld.warmup)
	start := wallNow()
	drive(ld.warmup, len(reqs))
	res.WallS = since(start).Seconds()
	health, herr := clients[0].Health(ctx)
	if err := d.stop(ctx); err != nil {
		res.Errors = append(res.Errors, "stop daemon: "+err.Error())
	}

	timed := reqs[ld.warmup:]
	var rejected, cached int
	for i := range reqs {
		rq := &reqs[i]
		if rq.rejected {
			rejected++
		}
		if rq.cached {
			cached++
		}
		if i < ld.warmup && rq.err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("warm-up request %d: %v", i, rq.err))
		}
	}
	res.Attempted = len(timed)
	for _, rq := range timed {
		if rq.err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("request %d: %v", rq.idx, rq.err))
			continue
		}
		res.OpsMS = append(res.OpsMS, float64(rq.span.dur())/1e6)
	}
	res.Digest = digestLines(indexedLines(fps))
	res.Pinned = pinnedDigest("fleetd-service", o)
	res.Report["requests"] = float64(len(timed))
	res.Report["jobs_per_s"] = float64(len(timed)-res.Failed) / res.WallS
	res.Report["cached_submits"] = float64(cached)

	if tr != nil {
		if herr != nil {
			return res, fmt.Errorf("healthz: %w", herr)
		}
		ft.fold(res.Layer, reqs, tr)
		l := res.Layer
		l["fleetd.list_ms_p99"] = percentile(listMS, 0.99)
		l["fleetd.cache_hit_ratio"] = float64(health.CacheHits) / float64(len(reqs))
		l["fleetd.rejected_ratio"] = float64(rejected) / float64(len(reqs))
	}
	return res, nil
}

// doRequest runs one request cycle, recording its spans when traced.
// Without tracing the timestamps still come from one clock so the
// op latency is measured identically.
func doRequest(ctx context.Context, c *api.Client, tr *tracer, spec []byte, rq *request) {
	clock := tr
	if clock == nil {
		clock = untracedClock
	}
	req := int64(rq.idx) + 1
	rq.span = span{Name: "fleetd.request", Req: req, Start: clock.now(), Calls: 1}
	if tr != nil {
		rq.span.ID = tr.next.Add(1)
	}
	defer func() {
		rq.span.End = clock.now()
		tr.add(rq.span)
	}()
	sub := tr.begin("fleetd.submit", rq.span.ID, req)
	resp, err := c.Submit(ctx, spec)
	sub.end()
	rq.submitReturn = clock.now()
	if err != nil {
		var busy api.ErrBusy
		var he *api.HTTPError
		rq.rejected = errors.As(err, &busy) || (errors.As(err, &he) && he.StatusCode == http.StatusServiceUnavailable)
		rq.err = fmt.Errorf("submit: %w", err)
		return
	}
	rq.jobID, rq.cached = resp.ID, resp.Cached
	st := tr.begin("fleetd.stream", rq.span.ID, req)
	last, err := c.Stream(ctx, resp.ID, func(l api.StreamLine) error {
		if l.Type == api.StreamDone {
			rq.doneLine = clock.now()
		}
		return nil
	})
	st.end()
	if err != nil {
		rq.err = fmt.Errorf("stream: %w", err)
		return
	}
	if last.Type != api.StreamDone || last.State != api.StateDone {
		rq.err = fmt.Errorf("stream ended without a done job: %+v", last)
		return
	}
	rp := tr.begin("fleetd.report", rq.span.ID, req)
	env, err := c.Report(ctx, resp.ID)
	rp.end()
	if err != nil {
		rq.err = fmt.Errorf("report: %w", err)
		return
	}
	if env.Report == nil {
		rq.err = errors.New("report: empty")
		return
	}
	if fp := env.Report.Fingerprint(); fp != env.Fingerprint || fp != last.Fingerprint {
		rq.err = fmt.Errorf("report fingerprint %s, envelope %s, stream %s", fp, env.Fingerprint, last.Fingerprint)
		return
	}
	rq.fingerprint = env.Fingerprint
}

// untracedClock is a tracer used only for its clock.
var untracedClock = newTracer(0)

// fold resolves the server-side spans to their requests and adds the
// fleetd.* latency and checkpoint metrics.
func (ft *fleetdTrace) fold(l map[string]float64, reqs []request, tr *tracer) {
	byJob := map[string]*request{}
	bySpec := map[int][]*request{}
	for i := range reqs {
		rq := &reqs[i]
		if rq.jobID != "" && byJob[rq.jobID] == nil {
			byJob[rq.jobID] = rq
		}
		if !rq.cached {
			bySpec[rq.spec] = append(bySpec[rq.spec], rq)
		}
	}
	type window struct{ first, last int64 }
	windows := map[*request]*window{}
	for _, sh := range ft.shards {
		for _, rq := range bySpec[sh.spec] {
			if rq.span.Start <= sh.s.Start && sh.s.End <= rq.span.End {
				sh.s.Parent, sh.s.Req = rq.span.ID, rq.span.Req
				w := windows[rq]
				if w == nil {
					w = &window{first: sh.s.Start, last: sh.s.End}
					windows[rq] = w
				}
				w.first, w.last = min(w.first, sh.s.Start), max(w.last, sh.s.End)
				break
			}
		}
		tr.add(sh.s)
	}
	var ckptMS []float64
	for _, ck := range ft.ckpts {
		if rq := byJob[ck.jobID]; rq != nil && rq.span.Start <= ck.s.Start && ck.s.End <= rq.span.End {
			ck.s.Parent, ck.s.Req = rq.span.ID, rq.span.Req
		}
		ckptMS = append(ckptMS, float64(ck.s.dur())/1e6)
		tr.add(ck.s)
	}
	var queue, runMS, tail []float64
	for i := range reqs {
		rq := &reqs[i]
		w := windows[rq]
		if w == nil {
			continue
		}
		queue = append(queue, float64(w.first-rq.submitReturn)/1e6)
		runMS = append(runMS, float64(w.last-w.first)/1e6)
		tail = append(tail, float64(rq.doneLine-w.last)/1e6)
	}
	spans := tr.snapshot()
	submit := durationsMS(spans, "fleetd.submit")
	l["fleetd.submit_ms_p50"] = percentile(submit, 0.50)
	l["fleetd.submit_ms_p99"] = percentile(submit, 0.99)
	l["fleetd.queue_wait_ms_p99"] = percentile(queue, 0.99)
	l["fleetd.run_ms_p50"] = percentile(runMS, 0.50)
	l["fleetd.stream_tail_ms_p50"] = percentile(tail, 0.50)
	l["fleetd.report_ms_p50"] = percentile(durationsMS(spans, "fleetd.report"), 0.50)
	l["fleetd.ckpt_write_ms_p50"] = percentile(ckptMS, 0.50)
	l["fleetd.ckpt_write_ms_p99"] = percentile(ckptMS, 0.99)
	l["fleetd.ckpt_writes_per_job"] = float64(len(ckptMS)) / float64(len(reqs))
	l["fleetd.ckpt_bytes_per_job"] = float64(ft.bytes.Load()) / float64(len(reqs))
}
