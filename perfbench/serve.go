package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"greencloud/internal/emul"
	"greencloud/internal/plan"
)

// The serve workload: episodes of serveTicks ticks, each from a fresh
// plannerd daemon on the default TraceSpec with snapshots on, served over
// loopback HTTP.  Connection 1 feeds ticks closed-loop; connection 2 reads
// open-loop at serveReadHz.  After each episode the daemon is stopped and a
// new one resumes from the snapshot.
const (
	serveTicks      = 1000 // ticks per episode
	serveScaleEvery = 6    // every 6th tick carries a green_scale update
	serveReadHz     = 200  // open-loop reader rate (reads per second)
	serveSessions   = 3    // what-if sessions the reader reuses
	serveMinEpisode = 3
	// serveEpisodeSeconds is roughly how long one episode's tick stream
	// lasts on a 2-core host; a run has seconds/serveEpisodeSeconds
	// episodes, a fixed amount of work for a given --seconds.
	serveEpisodeSeconds = 1.5
)

// serveGated maps BENCHMARK.json's end-to-end metrics to serve's metrics.
var serveGated = map[string]string{
	"setup_s":     "setup_s",
	"peak_rss_mb": "peak_rss_mb",
	"main_p50_ms": "tick_p50_ms",
	"side_p50_ms": "read_p50_ms",
	"cost_usd":    "brown_cost_usd",
}

// read kinds, also the server-side span names of the traced run.
const (
	readPlan    = "plan.read"
	readSession = "plan.whatif_session"
	readOneshot = "plan.whatif_oneshot"
)

// serveInputs are the seeded inputs of one run: the green-scale schedule
// (one entry per tick, the episode's ticks plus the one after the resume)
// and the reader's request generator seed.
type serveInputs struct {
	dcs     []string
	priceOf map[string]float64 // grid price per datacenter, USD/kWh
	sites   []string
	fleetKW float64
	scales  [][]map[string]float64 // per episode, per tick
	readRNG int64
}

func newServeInputs(seed int64, episodes int) (*serveInputs, error) {
	cfg, cat, err := plan.TraceSpec{}.Build()
	if err != nil {
		return nil, err
	}
	in := &serveInputs{readRNG: seed*7919 + 1, priceOf: make(map[string]float64)}
	for _, dc := range cfg.Datacenters {
		in.dcs = append(in.dcs, dc.Name)
		in.priceOf[dc.Name] = dc.Site.GridPriceUSDPerKWh
		in.fleetKW += dc.CapacityKW
	}
	in.fleetKW /= float64(len(cfg.Datacenters)) // every site can host the fleet
	for _, s := range cat.Sites() {
		in.sites = append(in.sites, s.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	in.scales = make([][]map[string]float64, episodes)
	for ep := range in.scales {
		in.scales[ep] = make([]map[string]float64, serveTicks+1)
		for i := range in.scales[ep] {
			if (i+1)%serveScaleEvery == 0 {
				in.scales[ep][i] = map[string]float64{in.dcs[rng.Intn(len(in.dcs))]: 0.6 + 0.8*rng.Float64()}
			}
		}
	}
	return in, nil
}

// serveAcc accumulates measurements across episodes.
type serveAcc struct {
	tickRT, readRT, late samples
	setup, resume        []float64
	streamSec            float64
	ticks                int
	greenFraction        []float64
	brownCost            []float64
	// traced run only
	tickIDs  []string
	perTick  struct{ pivots, flips, refactors, rowsRemoved, presolveMs, migrations, migratedMB samples }
	allocKB  samples
	gcShare  []float64
	coldFall int
	degraded int
	snapKB   float64
}

func runServe(rc *runCtx) (*report, error) {
	episodes := int(math.Ceil(rc.seconds / serveEpisodeSeconds))
	if rc.tr != nil {
		// A traced tick also steps and replays two shadow runners, so the
		// traced run has half the episodes.
		episodes = (episodes + 1) / 2
	}
	if episodes < serveMinEpisode {
		episodes = serveMinEpisode
	}
	in, err := newServeInputs(rc.seed, episodes)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	acc := &serveAcc{}
	for ep := 0; ep < episodes; ep++ {
		if err := serveEpisode(rc, ep, in, acc, rep); err != nil {
			return nil, err
		}
	}

	tq := tailQuantile(len(acc.tickRT))
	rq := tailQuantile(len(acc.readRT))
	rep.set("tick_p50_ms", acc.tickRT.median(), "ms", len(acc.tickRT))
	rep.set("tick_p99_ms", acc.tickRT.quantile(tq), "ms", len(acc.tickRT))
	rep.set("read_p50_ms", acc.readRT.median(), "ms", len(acc.readRT))
	rep.set("read_p99_ms", acc.readRT.quantile(rq), "ms", len(acc.readRT))
	rep.set("ticks_per_s", float64(acc.ticks)/acc.streamSec, "1/s", acc.ticks)
	rep.set("resume_s", medianOf(acc.resume), "s", len(acc.resume))
	rep.set("setup_s", medianOf(acc.setup), "s", len(acc.setup))
	rep.set("green_fraction", medianOf(acc.greenFraction), "ratio", len(acc.greenFraction))
	rep.set("brown_cost_usd", medianOf(acc.brownCost), "USD", len(acc.brownCost))
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	rep.sum = append(rep.sum,
		fmt.Sprintf("tick tail is p%g of %d ticks; read tail is p%g of %d reads", 100*tq, len(acc.tickRT), 100*rq, len(acc.readRT)),
		fmt.Sprintf("reader lateness (send time - due time): p50 %.4g ms, p99 %.4g ms, max %.4g ms over %d reads at %d/s",
			acc.late.median(), acc.late.quantile(0.99), acc.late.quantile(1), len(acc.late), serveReadHz))
	if rc.tr != nil {
		serveLayers(rc.tr, acc, rep)
	}
	return rep, nil
}

// serveEpisode runs one fresh daemon through serveTicks ticks with the
// reader beside it, checks the result against a batch runner, then stops
// the daemon and resumes a new one from the snapshot.
func serveEpisode(rc *runCtx, ep int, in *serveInputs, acc *serveAcc, rep *report) error {
	dir := filepath.Join(rc.dir, "serve-"+strconv.Itoa(ep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := plan.Config{SnapshotPath: filepath.Join(dir, "plan.snap")}

	setupStart := time.Now()
	srv, err := startDaemon(cfg, rc.tr)
	if err != nil {
		return err
	}
	acc.setup = append(acc.setup, time.Since(setupStart).Seconds())
	defer srv.stop()

	// Shadows: a batch runner stepped with the same scale schedule checks
	// the served totals; in the traced run it is stepped in lockstep (its
	// Step is emul.step_ms) and a second runner replays each tick's moves
	// (emul.execute_ms).
	shadow, err := newShadow()
	if err != nil {
		return err
	}
	var replayer *emul.Runner
	if rc.tr != nil {
		if replayer, err = newShadow(); err != nil {
			return err
		}
	}

	tickClient := newClient()
	defer tickClient.CloseIdleConnections()
	reader := startReader(srv.url, in, rc.tr, ep)

	var view plan.PlanView
	var shadowTotals plan.Totals
	var brownUSD float64
	var before runtimeSample
	streamStart := time.Now()
	if rc.tr != nil {
		before = readRuntime()
	}
	for i := 0; i < serveTicks; i++ {
		id := fmt.Sprintf("e%d.t%d", ep, i)
		var a0 runtimeSample
		if rc.tr != nil {
			a0 = readRuntime()
		}
		v, rt, err := postTick(tickClient, srv.url, in.scales[ep][i], rc.tr, id)
		rep.attempted++
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "serve: tick %s: %v\n", id, err)
			continue
		}
		acc.tickRT.add(rt)
		view = v
		for _, r := range view.LastRecords {
			brownUSD += r.BrownKW * in.priceOf[r.Datacenter] // one-hour ticks: kW == kWh
		}
		if view.Degraded {
			rep.failed++
			acc.degraded++
		}
		if rc.tr == nil {
			continue
		}
		a1 := readRuntime()
		acc.allocKB = append(acc.allocKB, float64(a1.allocBytes-a0.allocBytes)/1024)
		st := view.LastLPStats
		acc.perTick.pivots = append(acc.perTick.pivots, float64(st.Pivots))
		acc.perTick.flips = append(acc.perTick.flips, float64(st.BoundFlips))
		acc.perTick.refactors = append(acc.perTick.refactors, float64(st.Refactorizations))
		acc.perTick.rowsRemoved = append(acc.perTick.rowsRemoved, float64(st.RowsRemoved))
		acc.perTick.presolveMs = append(acc.perTick.presolveMs, float64(st.PresolveNanos)/1e6)
		var mb float64
		for _, r := range view.LastRecords {
			mb += float64(r.MigratedBytes) / 1e6
		}
		acc.perTick.migratedMB = append(acc.perTick.migratedMB, mb)
		tick, err := shadowStep(rc.tr, shadow, replayer, in.scales[ep][i], id)
		if err != nil {
			return err
		}
		acc.perTick.migrations = append(acc.perTick.migrations, float64(tick.Migrations))
		foldTotals(&shadowTotals, tick)
		acc.tickIDs = append(acc.tickIDs, id)
	}
	streamSec := time.Since(streamStart).Seconds()
	if rc.tr != nil {
		acc.gcShare = append(acc.gcShare, gcShare(before, readRuntime()))
	}
	reads := reader.stop()
	acc.streamSec += streamSec
	acc.ticks += serveTicks
	acc.readRT = append(acc.readRT, reads.rt...)
	acc.late = append(acc.late, reads.late...)
	rep.attempted += reads.attempted
	rep.failed += reads.failed

	// Output checks, outside the timed stream.
	if rc.tr == nil {
		for i := 0; i < serveTicks; i++ {
			tick, err := shadowStep(nil, shadow, nil, in.scales[ep][i], "")
			if err != nil {
				return err
			}
			foldTotals(&shadowTotals, tick)
		}
	}
	if view.Tick != serveTicks {
		rep.failCheck("serve episode %d: daemon reports tick %d, want %d", ep, view.Tick, serveTicks)
	}
	if view.Totals != shadowTotals {
		rep.failCheck("serve episode %d: served totals %+v differ from the batch runner's %+v", ep, view.Totals, shadowTotals)
	}
	if view.CumLPStats.ColdFallbacks != 0 {
		rep.failCheck("serve episode %d: %d cold fallbacks", ep, view.CumLPStats.ColdFallbacks)
	}
	acc.coldFall += view.CumLPStats.ColdFallbacks
	if view.Totals.DemandKWh > 0 {
		acc.greenFraction = append(acc.greenFraction, view.Totals.GreenKWh/view.Totals.DemandKWh)
	}
	acc.brownCost = append(acc.brownCost, brownUSD)
	if fi, err := os.Stat(cfg.SnapshotPath); err == nil {
		acc.snapKB = float64(fi.Size()) / 1024
	}

	// Resume: stop the daemon, time a new one from the snapshot until it
	// serves, then check its next tick against the shadow's.
	srv.stop()
	resumeStart := time.Now()
	srv2, err := startDaemon(cfg, nil)
	if err != nil {
		return err
	}
	defer srv2.stop()
	acc.resume = append(acc.resume, time.Since(resumeStart).Seconds())
	if resumed, warm := srv2.d.Resumed(); !resumed || !warm {
		rep.failCheck("serve episode %d: resumed=%v warm=%v, want a warm resume", ep, resumed, warm)
	}
	next, _, err := postTick(tickClient, srv2.url, in.scales[ep][serveTicks], nil, "")
	rep.attempted++
	if err != nil {
		rep.failCheck("serve episode %d: tick after resume: %v", ep, err)
		return nil
	}
	tick, err := shadowStep(nil, shadow, nil, in.scales[ep][serveTicks], "")
	if err != nil {
		return err
	}
	foldTotals(&shadowTotals, tick)
	if !reflect.DeepEqual(wallClockFree(next.LastRecords), wallClockFree(tick.Records)) || next.Totals != shadowTotals {
		rep.failCheck("serve episode %d: first tick after resume differs from the batch runner's", ep)
	}
	return nil
}

// daemonServer is a plan.Daemon served over loopback HTTP.
type daemonServer struct {
	d      *plan.Daemon
	url    string
	srv    *http.Server
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once
}

// startDaemon builds a daemon (resuming from cfg.SnapshotPath when a
// snapshot is there) and returns once it answers /healthz.
func startDaemon(cfg plan.Config, tr *tracer) (*daemonServer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Ctx = ctx
	d, err := plan.New(cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	var h http.Handler = d.Handler()
	if tr != nil {
		h = serverSpans(tr, h)
	}
	s := &daemonServer{d: d, url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h},
		cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *daemonServer) stop() {
	s.once.Do(func() {
		s.srv.Shutdown(context.Background())
		<-s.done
		s.cancel()
	})
}

// serverSpans times each request inside the server: the span's parent is
// the client span named by the X-Bench-Span header.
func serverSpans(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := r.Header.Get("X-Bench-Op")
		if name == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		if err != nil {
			parent = -1
		}
		i := tr.begin(name, r.Header.Get("X-Bench-ID"), parent)
		next.ServeHTTP(w, r)
		tr.end(i)
	})
}

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// do sends one request and returns the body of a 2xx reply.
func do(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s", req.Method, req.URL.Path, resp.Status)
	}
	return body, nil
}

// postTick sends POST /tick and decodes the returned view; the round trip
// is timed to the end of the reply body.
func postTick(c *http.Client, url string, scales map[string]float64, tr *tracer, id string) (plan.PlanView, time.Duration, error) {
	var view plan.PlanView
	body, err := json.Marshal(plan.TickRequest{GreenScale: scales})
	if err != nil {
		return view, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/tick", bytes.NewReader(body))
	if err != nil {
		return view, 0, err
	}
	span := tr.begin("client.tick", id, -1)
	if tr != nil {
		req.Header.Set("X-Bench-Op", "plan.tick")
		req.Header.Set("X-Bench-ID", id)
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	start := time.Now()
	reply, err := do(c, req)
	rt := time.Since(start)
	tr.end(span)
	if err != nil {
		return view, rt, err
	}
	if err := json.Unmarshal(reply, &view); err != nil {
		return view, rt, fmt.Errorf("decode tick reply: %w", err)
	}
	return view, rt, nil
}

// newShadow builds a batch runner on the same trace the daemon serves.
func newShadow() (*emul.Runner, error) {
	cfg, _, err := plan.TraceSpec{}.Build()
	if err != nil {
		return nil, err
	}
	r, err := emul.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r, r.Start()
}

// shadowStep applies a tick's scale update to the shadow and steps it; in
// the traced run the replayer re-executes the resulting moves.
func shadowStep(tr *tracer, shadow, replayer *emul.Runner, scales map[string]float64, id string) (*emul.Tick, error) {
	for name, s := range scales {
		if err := shadow.SetGreenScale(name, s); err != nil {
			return nil, err
		}
		if replayer != nil {
			if err := replayer.SetGreenScale(name, s); err != nil {
				return nil, err
			}
		}
	}
	span := tr.begin("emul.step", id, -1)
	tick, err := shadow.Step()
	tr.end(span)
	if err != nil {
		return nil, err
	}
	tr.record("sched.round", id, span, time.Duration(tick.SchedulerNanos))
	if replayer != nil {
		span := tr.begin("emul.execute", id, -1)
		_, err := replayer.Replay(tick.Moves)
		tr.end(span)
		if err != nil {
			return nil, err
		}
	}
	return tick, nil
}

// wallClockFree returns a copy of records without the one wall-clock field.
func wallClockFree(records []emul.HourRecord) []emul.HourRecord {
	out := append([]emul.HourRecord(nil), records...)
	for i := range out {
		out[i].SchedulerNanos = 0
	}
	return out
}

// foldTotals accumulates a tick exactly as the daemon's serving view does.
func foldTotals(t *plan.Totals, tick *emul.Tick) {
	t.Migrations += tick.Migrations
	for i := range tick.Records {
		rec := &tick.Records[i]
		demandKW := rec.LoadKW + rec.PUEOverheadKW + rec.MigrationKW
		t.DemandKWh += demandKW
		t.BrownKWh += rec.BrownKW
		t.GreenKWh += demandKW - rec.BrownKW
		t.MigrationKWh += rec.MigrationKW
	}
}

// reader is the open-loop reader on its own connection.
type reader struct {
	stopc chan struct{}
	done  chan readerResult
}

type readerResult struct {
	rt, late          samples
	attempted, failed int
}

// startReader sends reads at serveReadHz, each due at start + j/rate and
// timed from its due time, until stop is called.
func startReader(url string, in *serveInputs, tr *tracer, ep int) *reader {
	r := &reader{stopc: make(chan struct{}), done: make(chan readerResult, 1)}
	go func() {
		c := newClient()
		defer c.CloseIdleConnections()
		rng := rand.New(rand.NewSource(in.readRNG))
		var res readerResult
		period := time.Second / serveReadHz
		start := time.Now()
		for j := 0; ; j++ {
			due := start.Add(time.Duration(j) * period)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-r.stopc:
					r.done <- res
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-r.stopc:
					r.done <- res
					return
				default:
				}
			}
			kind, req, err := nextRead(rng, url, in)
			if err != nil {
				res.attempted++
				res.failed++
				continue
			}
			id := fmt.Sprintf("e%d.r%d", ep, j)
			span := tr.begin("client."+kind, id, -1)
			if tr != nil {
				req.Header.Set("X-Bench-Op", kind)
				req.Header.Set("X-Bench-ID", id)
				req.Header.Set("X-Bench-Span", strconv.Itoa(span))
			}
			res.late.add(time.Since(due))
			_, err = do(c, req)
			tr.end(span)
			res.attempted++
			if err != nil {
				res.failed++
				fmt.Fprintf(os.Stderr, "serve: read %s: %v\n", id, err)
				continue
			}
			res.rt.add(time.Since(due))
		}
	}()
	return r
}

func (r *reader) stop() readerResult {
	close(r.stopc)
	return <-r.done
}

// nextRead draws the reader's next request: half GET /plan, a third
// what-if against a reused session, the rest one-shot what-if.
func nextRead(rng *rand.Rand, url string, in *serveInputs) (string, *http.Request, error) {
	p := rng.Float64()
	if p < 0.5 {
		req, err := http.NewRequest(http.MethodGet, url+"/plan", nil)
		return readPlan, req, err
	}
	green := []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
	wreq := plan.WhatIfRequest{MinGreenFraction: &green}
	if rng.Intn(2) == 0 {
		a, b := rng.Intn(len(in.sites)), rng.Intn(len(in.sites)-1)
		if b >= a {
			b++
		}
		wreq.Candidates = []plan.WhatIfCandidate{
			{Site: in.sites[a], CapacityKW: in.fleetKW},
			{Site: in.sites[b], CapacityKW: in.fleetKW},
		}
	}
	kind := readOneshot
	if p < 0.83 {
		kind = readSession
		wreq.Session = "s" + strconv.Itoa(rng.Intn(serveSessions))
	}
	body, err := json.Marshal(&wreq)
	if err != nil {
		return kind, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/whatif", bytes.NewReader(body))
	return kind, req, err
}

// serveLayers derives serve's per-layer metrics from the spans.
func serveLayers(tr *tracer, acc *serveAcc, rep *report) {
	self := tr.selfTimes()
	durs := func(name string) map[string]float64 {
		out := make(map[string]float64)
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, s := range tr.spans {
			if s.Name == name {
				out[s.ID] = s.dur()
			}
		}
		return out
	}
	server, step := durs("plan.tick"), durs("emul.step")
	var persist samples
	for _, id := range acc.tickIDs {
		persist = append(persist, server[id]-step[id])
	}
	tickMs := tr.byName("plan.tick")
	stepMs := tr.byName("emul.step")
	clientMs := self["client.tick"]
	rep.layer("plan.tick_ms", tickMs.median(), "ms", len(tickMs))
	for _, name := range []string{readPlan, readSession, readOneshot} {
		d := tr.byName(name)
		rep.layer(name+"_ms", d.median(), "ms", len(d))
	}
	rep.layer("plan.client_overhead_ms", clientMs.median(), "ms", len(clientMs))
	rep.layer("emul.step_ms", stepMs.median(), "ms", len(stepMs))
	rep.layer("plan.persist_ms", persist.median(), "ms", len(persist))
	sched := tr.byName("sched.round")
	rep.layer("sched.round_ms", sched.median(), "ms", len(sched))
	exec := tr.byName("emul.execute")
	rep.layer("emul.execute_ms", exec.median(), "ms", len(exec))
	rep.layer("plan.snapshot_kb", acc.snapKB, "KB", 1)
	n := len(acc.perTick.pivots)
	rep.layer("lp.pivots", acc.perTick.pivots.mean(), "count", n)
	rep.layer("lp.bound_flips", acc.perTick.flips.mean(), "count", n)
	rep.layer("lp.refactorizations", acc.perTick.refactors.mean(), "count", n)
	rep.layer("lp.presolve_ms", acc.perTick.presolveMs.mean(), "ms", n)
	rep.layer("lp.rows_removed", acc.perTick.rowsRemoved.mean(), "count", n)
	rep.layer("lp.cold_fallbacks", float64(acc.coldFall), "count", n)
	rep.layer("sched.degraded", float64(acc.degraded), "count", n)
	rep.layer("emul.migrations", acc.perTick.migrations.mean(), "count", n)
	rep.layer("emul.migrated_mb", acc.perTick.migratedMB.mean(), "MB", n)
	rep.layer("runtime.alloc_kb", acc.allocKB.mean(), "KB", len(acc.allocKB))
	rep.layer("runtime.gc_cpu_share", medianOf(acc.gcShare), "ratio", len(acc.gcShare))

	rt := acc.tickRT.median()
	parts := clientMs.median() + persist.median() + stepMs.median()
	rep.sum = append(rep.sum, fmt.Sprintf(
		"tick breakdown (medians per tick): client_overhead %.4g + persist %.4g + emul.step %.4g = %.4g ms vs tick round trip %.4g ms, unattributed %.4g ms",
		clientMs.median(), persist.median(), stepMs.median(), parts, rt, rt-parts))
}
