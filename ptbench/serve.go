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
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paratreet"
	"paratreet/internal/experiments"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
	"paratreet/internal/vec"
)

// The serve workload: a resident query service on a loopback listener,
// driven by two closed-loop clients on keep-alive connections. Each client
// cycles through its own experiments.NewQuerySet, with the parameters of
// the `paratreet-bench bench` serve gate: equal thirds of kNN (k up to 16),
// range (radius 0.025-0.075) and probe queries at points uniform in the
// unit box. Every refreshEvery-th operation of client 0 is an
// Engine.Refresh that drifts every particle by v·dt.
const (
	serveClients = 2
	serveDt      = 1e-3
	// serveQueries is the length of each client's query set, several times
	// what a client issues in a 30-s window on a 2-CPU host.
	serveQueries = 1 << 15
	serveK       = 16
	serveRadius  = 0.05
	// serveCheckEvery samples every serveCheckEvery-th query of each
	// client for the brute-force check.
	serveCheckEvery = 8
)

// serveEnv is one running service: engine, HTTP server, and the
// benchmark's own copy of the particle state.
type serveEnv struct {
	ps0     []particle.Particle // state 0, as generated
	cur     []particle.Particle // the latest state, advanced by client 0
	eng     *serve.Engine
	srv     *serve.Server
	health  *metrics.HealthCollector
	httpSrv *http.Server
	served  chan error
	url     string
	workers int // worker goroutines of the simulated machine

	// started and finished count refreshes entered and returned: a query
	// sent after finished = a and answered before started = b saw one of
	// the states a..b.
	started, finished atomic.Int64
}

// startServe generates the seeded particles and starts the service with
// the daemon's defaults: batch 32, batch-wait 2 ms, flush timers on the
// simulated machine, metrics registry and health collector on, and
// incremental refreshes enabled.
func startServe(n int, seed int64) (*serveEnv, error) {
	ps := clustered(n, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x7e10c))
	for i := range ps {
		ps[i].Vel = vec.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(0.05)
		ps[i].Radius = 5e-4 + 1e-3*rng.Float64()
	}
	env := &serveEnv{ps0: ps, cur: particle.Clone(ps), served: make(chan error, 1)}
	c := machineConfig(paratreet.NewMetricsRegistry(paratreet.MetricsOptions{}))
	c.Incremental = true
	env.workers = c.Procs * c.WorkersPerProc
	var err error
	if env.eng, err = serve.NewEngine(c, particle.Clone(ps)); err != nil {
		return nil, err
	}
	reg := c.Metrics
	scfg := serve.ServerConfig{Batch: serve.BatchConfig{MaxBatch: 32, MaxWait: 2 * time.Millisecond}}
	scfg.Batch.AfterFunc = env.eng.TimerAfterFunc()
	env.srv = serve.NewServer(env.eng, scfg)
	bat := env.srv.Batcher()
	env.health = metrics.StartHealth(reg, metrics.HealthConfig{
		Interval: time.Second,
		Extra: func() {
			reg.Gauge(metrics.GServeQueueDepth).Set(int64(bat.QueueDepth()))
			reg.Gauge(metrics.GServeInflightWaves).Set(int64(bat.InFlight()))
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	env.url = "http://" + ln.Addr().String()
	env.httpSrv = &http.Server{Handler: env.srv.Handler()}
	go func() { env.served <- env.httpSrv.Serve(ln) }()
	return env, nil
}

// close drains and stops everything startServe started and waits for it.
func (e *serveEnv) close() {
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.httpSrv.Shutdown(ctx)
		cancel()
		<-e.served
	}
	e.srv.Drain()
	e.health.Stop()
	e.eng.Close()
}

// refresh drifts the benchmark's state by v·dt and rebuilds the engine
// over a copy of it.
func (e *serveEnv) refresh() (time.Duration, error) {
	drift(e.cur)
	next := particle.Clone(e.cur)
	e.started.Add(1)
	start := time.Now()
	err := e.eng.Refresh(next)
	d := time.Since(start)
	e.finished.Add(1)
	return d, err
}

func drift(ps []particle.Particle) {
	for i := range ps {
		ps[i].Pos = ps[i].Pos.Add(ps[i].Vel.Scale(serveDt))
	}
}

// wireHit and wireResponse mirror the service's JSON answer.
type wireHit struct {
	ID   int64      `json:"id"`
	Dist float64    `json:"dist"`
	Pos  [3]float64 `json:"pos"`
}

type wireResponse struct {
	Hits   []wireHit `json:"hits"`
	Timing struct {
		QueueWaitUs float64 `json:"queue_wait_us"`
		WaveUs      float64 `json:"wave_us"`
		TotalUs     float64 `json:"total_us"`
		BatchSize   int     `json:"batch_size"`
	} `json:"timing"`
}

// querySet is a client's reproducible stream of requests.
func querySet(n int, seed int64) []serve.Query {
	return experiments.NewQuerySet(n, seed, vec.UnitBox(), serveK, serveRadius)
}

func queryPath(q *serve.Query) string { return "/query/" + q.Kind.String() }

func queryBody(q *serve.Query) ([]byte, error) {
	req := map[string]any{"pos": []float64{q.Pos.X, q.Pos.Y, q.Pos.Z}}
	switch q.Kind {
	case serve.KNN:
		req["k"] = q.K
	case serve.Range:
		req["radius"] = q.Radius
	case serve.Probe:
		req["radius"], req["vel"], req["dt"] = q.Radius, []float64{q.Vel.X, q.Vel.Y, q.Vel.Z}, q.Dt
	}
	return json.Marshal(req)
}

// sampled is one query kept for the brute-force check, with the range of
// states it may have been answered from.
type sampled struct {
	q            serve.Query
	hits         []wireHit
	vFrom, vUpTo int64
}

// clientLog is what one closed-loop client measured.
type clientLog struct {
	latMs, httpUs, queueUs, waveUs, batch []float64
	refreshMs                             []float64
	refreshModes                          []string
	queries, refreshes, failed            int64
	samples                               []sampled
	spans                                 []span
	failures                              []string
}

// runClient issues closed-loop operations from qs until the deadline.
// Client 0 replaces every refreshEvery-th operation by a refresh.
func (e *serveEnv) runClient(id int, qs []serve.Query, refreshEvery int, deadline time.Time, origin time.Time, trace bool) *clientLog {
	lg := &clientLog{}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	for op := 1; time.Now().Before(deadline); op++ {
		if id == 0 && op%refreshEvery == 0 {
			d, err := e.refresh()
			lg.refreshes++
			if err != nil {
				lg.failed++
				lg.failures = append(lg.failures, fmt.Sprintf("refresh: %v", err))
				continue
			}
			lg.refreshMs = append(lg.refreshMs, ms(d))
			bs := e.eng.BuildStats()
			lg.refreshModes = append(lg.refreshModes, bs.Mode+"/"+bs.FallbackReason)
			if trace {
				lg.spans = append(lg.spans, span{int64(id)<<32 | int64(op), "engine.refresh", "", us(time.Since(origin) - d), us(d)})
			}
			continue
		}
		q := qs[op%len(qs)]
		vFrom := e.finished.Load()
		start := time.Now()
		resp, err := e.post(hc, &q)
		lat := time.Since(start)
		vUpTo := e.started.Load()
		lg.queries++
		lg.latMs = append(lg.latMs, ms(lat))
		if err != nil {
			lg.failed++
			lg.failures = append(lg.failures, err.Error())
			continue
		}
		t := resp.Timing
		lg.httpUs = append(lg.httpUs, us(lat)-t.TotalUs)
		lg.queueUs = append(lg.queueUs, t.QueueWaitUs)
		lg.waveUs = append(lg.waveUs, t.WaveUs)
		lg.batch = append(lg.batch, float64(t.BatchSize))
		if op%serveCheckEvery == 0 {
			lg.samples = append(lg.samples, sampled{q, resp.Hits, vFrom, vUpTo})
		}
		if trace {
			lg.spans = append(lg.spans, querySpans(int64(id)<<32|int64(op), us(start.Sub(origin)), us(lat), resp)...)
		}
	}
	return lg
}

// post sends one query and decodes its answer; a transport error or a
// non-200 status is an error.
func (e *serveEnv) post(hc *http.Client, q *serve.Query) (*wireResponse, error) {
	body, err := queryBody(q)
	if err != nil {
		return nil, err
	}
	r, err := hc.Post(e.url+queryPath(q), "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(r.Body)
		return nil, fmt.Errorf("%s: HTTP %d: %s", queryPath(q), r.StatusCode, bytes.TrimSpace(msg))
	}
	var out wireResponse
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: decoding answer: %w", queryPath(q), err)
	}
	return &out, nil
}

// querySpans lays one query out as spans: the client's HTTP exchange, the
// server's handler time inside it, and the queue wait and wave inside
// that. The server-side spans carry the durations of the answer's timing
// block; their start times are inferred (handler centred in the exchange,
// queue wait then wave at the handler's start).
func querySpans(op int64, startUs, latUs float64, r *wireResponse) []span {
	t := r.Timing
	h := startUs + (latUs-t.TotalUs)/2
	return []span{
		{op, "http.query", "", startUs, latUs},
		{op, "serve.handler", "http.query", h, t.TotalUs},
		{op, "serve.queue_wait", "serve.handler", h, t.QueueWaitUs},
		{op, "serve.wave", "serve.handler", h + t.QueueWaitUs, t.WaveUs},
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// warmUp sends 64 queries so that connections, caches and pools are in
// place before the window.
func (e *serveEnv) warmUp(seed int64) error {
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	qs := querySet(64, ^seed)
	for i := range qs {
		if _, err := e.post(hc, &qs[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func runServe(cfg config) (*report, error) {
	rep := newReport()
	var env *serveEnv
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if env, err = startServe(cfg.size.serveN, cfg.seed); err != nil {
			return nil, err
		}
		if err := env.warmUp(cfg.seed); err != nil {
			env.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()

	sets := make([][]serve.Query, serveClients)
	for id := range sets {
		sets[id] = querySet(serveQueries, cfg.seed*serveClients+int64(id))
	}
	reg := env.eng.Registry()
	reg.Sketch(metrics.HCacheFetchRTT).Reset()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snap0 := env.eng.Snapshot()
	start := time.Now()
	deadline := start.Add(cfg.window)
	logs := make([]*clientLog, serveClients)
	var wg sync.WaitGroup
	for id := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[id] = env.runClient(id, sets[id], cfg.size.refreshEvery, deadline, start, cfg.trace)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	snap1 := env.eng.Snapshot()
	heap := liveHeapMB()

	var all clientLog
	for _, lg := range logs {
		all.latMs = append(all.latMs, lg.latMs...)
		all.httpUs = append(all.httpUs, lg.httpUs...)
		all.queueUs = append(all.queueUs, lg.queueUs...)
		all.waveUs = append(all.waveUs, lg.waveUs...)
		all.batch = append(all.batch, lg.batch...)
		all.refreshMs = append(all.refreshMs, lg.refreshMs...)
		all.refreshModes = append(all.refreshModes, lg.refreshModes...)
		all.queries += lg.queries
		all.refreshes += lg.refreshes
		all.failed += lg.failed
		all.samples = append(all.samples, lg.samples...)
		all.spans = append(all.spans, lg.spans...)
		all.failures = append(all.failures, lg.failures...)
	}
	rep.attempted = all.queries + all.refreshes
	rep.failed = all.failed
	if all.failed > 0 {
		rep.correct = false
		rep.notef("FAILED: %d operations, first: %s", all.failed, all.failures[0])
	}
	if all.queries == 0 || len(all.refreshMs) == 0 {
		return nil, fmt.Errorf("%d queries and %d refreshes completed in the window; lengthen --seconds", all.queries, len(all.refreshMs))
	}
	checkServe(env, all.samples, rep)

	ok := float64(all.queries - all.failed)
	rep.e2e("setup_s", "s", median(setups))
	rep.e2e("op_ms", "ms", median(all.latMs))
	rep.e2e("ops_per_s", "1/s", ok/elapsed.Seconds())
	rep.e2e("alloc_kb_per_op", "KB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(all.queries))
	rep.layer("mem.heap_mb", "MB", heap)
	rep.notef("live heap %.2f MB after two forced GCs", heap)
	modes := map[string]int{}
	for _, m := range all.refreshModes {
		modes[m]++
	}
	rep.notef("%d queries and %d refreshes in %.2f s; setup runs %v s", all.queries, all.refreshes, elapsed.Seconds(), setups)
	rep.notef("query latency p50 %.3f ms, p99 %.3f ms over %d queries", median(all.latMs), percentile(all.latMs, 0.99), len(all.latMs))
	rep.notef("refresh median %.3f ms over %d; builds (mode/fallback reason): %s", median(all.refreshMs), len(all.refreshMs), countsString(modes))

	if cfg.trace {
		serveLedger(rep, &all, snap0, snap1, elapsed, env.workers, modes)
		rep.spans = all.spans
		rep.notef("%s", selfTimeNote(all.spans))
	}
	return rep, nil
}

// serveLedger reports the per-layer metrics of a traced serve window:
// the timing-block medians, and the registry's and runtime's counts per
// query over the window.
func serveLedger(rep *report, all *clientLog, s0, s1 *metrics.Snapshot, elapsed time.Duration, workers int, modes map[string]int) {
	q := float64(all.queries)
	per := func(name string) float64 { return float64(s1.Counter(name)-s0.Counter(name)) / q }
	rep.layer("trace.op_ms", "ms", median(all.latMs))
	rep.layer("serve.query_ms_p99", "ms", percentile(all.latMs, 0.99))
	rep.layer("serve.http_us_p50", "us", median(all.httpUs))
	rep.layer("serve.queue_wait_us_p50", "us", median(all.queueUs))
	rep.layer("serve.wave_us_p50", "us", median(all.waveUs))
	var sum float64
	for _, b := range all.batch {
		sum += b
	}
	rep.layer("serve.batch_size_mean", "count", sum/float64(len(all.batch)))
	inc := 0
	for m, c := range modes {
		if strings.HasPrefix(m, "incremental/") {
			inc += c
		}
	}
	rep.layer("serve.refresh_ms", "ms", median(all.refreshMs))
	rep.layer("serve.refresh_incremental", "count", float64(inc))
	var busy int64
	for i, ph := range phaseNames {
		name := paratreet.Phase(i).String()
		d := s1.PhasesNs[name] - s0.PhasesNs[name]
		rep.layer("rt.busy_ms."+ph, "ms", float64(d)/1e6/q)
		if paratreet.Phase(i) != paratreet.PhaseIdle {
			busy += d
		}
	}
	rep.layer("rt.utilization", "ratio", float64(busy)/(float64(workers)*float64(elapsed.Nanoseconds())))
	rep.layer("rt.messages", "count", per("rt.messages_sent"))
	rep.layer("rt.kbytes", "KB", per("rt.bytes_sent")/1024)
	rep.layer("rt.tasks", "count", per("rt.tasks_run"))
	rep.layer("rt.steals", "count", per("rt.steals"))
	rep.layer("cache.requests", "count", per("rt.node_requests"))
	rep.layer("cache.duplicate_requests", "count", per("rt.duplicate_requests"))
	rep.layer("cache.fills", "count", per("rt.fills"))
	rep.layer("cache.nodes_shipped", "count", per("rt.nodes_shipped"))
	rep.layer("cache.particles_shipped", "count", per("rt.particles_shipped"))
	for _, n := range []string{"traverse.visits", "traverse.opens", "traverse.prunes", "traverse.parks", "traverse.resumes"} {
		rep.layer(n, "count", per(n))
	}
	hits := s1.Counter(metrics.CCacheHits) - s0.Counter(metrics.CCacheHits)
	misses := s1.Counter(metrics.CCacheMisses) - s0.Counter(metrics.CCacheMisses)
	rep.layer("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.layer("cache.fetch_rtt_us_p50", "us", float64(s1.Sketches[metrics.HCacheFetchRTT].P50)/1e3)
}

// checkServe recomputes every sampled answer by brute force over each
// particle state the query may have seen, walking the states forward
// from state 0 with the same drift the refreshes applied. A sample that
// matches none of its states is a failed operation.
func checkServe(env *serveEnv, samples []sampled, rep *report) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].vFrom < samples[j].vFrom })
	state := particle.Clone(env.ps0)
	matched := make([]bool, len(samples))
	var maxV int64
	for _, s := range samples {
		maxV = max(maxV, s.vUpTo)
	}
	for v := int64(0); v <= maxV; v++ {
		if v > 0 {
			drift(state)
		}
		for i := range samples {
			s := &samples[i]
			if !matched[i] && s.vFrom <= v && v <= s.vUpTo && sameHits(s.hits, bruteForce(state, &s.q)) {
				matched[i] = true
			}
		}
	}
	bad := 0
	for i := range samples {
		if !matched[i] {
			bad++
			if bad == 1 {
				s := &samples[i]
				rep.notef("FAILED: %s query at %v (states %d..%d) differs from brute force", s.q.Kind, s.q.Pos, s.vFrom, s.vUpTo)
			}
		}
	}
	if bad > 0 {
		rep.failed += int64(bad)
		rep.correct = false
	}
	rep.notef("serve check: %d of %d sampled answers equal the brute-force answer over a state current while in flight", len(samples)-bad, len(samples))
}

// bruteForce answers q over every particle of ps with the service's
// ordering: (distance, ID) for kNN and range, ID for probe.
func bruteForce(ps []particle.Particle, q *serve.Query) []wireHit {
	var hits []wireHit
	add := func(p *particle.Particle, d float64) {
		hits = append(hits, wireHit{p.ID, d, [3]float64{p.Pos.X, p.Pos.Y, p.Pos.Z}})
	}
	switch q.Kind {
	case serve.KNN:
		type cand struct {
			d2 float64
			i  int
		}
		best := make([]cand, 0, q.K+1)
		for i := range ps {
			d2 := ps[i].Pos.DistSq(q.Pos)
			if len(best) == q.K && d2 > best[q.K-1].d2 {
				continue
			}
			best = append(best, cand{d2, i})
			sort.Slice(best, func(a, b int) bool {
				if best[a].d2 != best[b].d2 {
					return best[a].d2 < best[b].d2
				}
				return ps[best[a].i].ID < ps[best[b].i].ID
			})
			if len(best) > q.K {
				best = best[:q.K]
			}
		}
		for _, c := range best {
			add(&ps[c.i], math.Sqrt(c.d2))
		}
	case serve.Range:
		r2 := q.Radius * q.Radius
		for i := range ps {
			if d2 := ps[i].Pos.DistSq(q.Pos); d2 <= r2 {
				add(&ps[i], math.Sqrt(d2))
			}
		}
	case serve.Probe:
		for i := range ps {
			s := &ps[i]
			sep := s.Pos.Sub(q.Pos).Norm()
			if sep <= q.Radius+s.Radius+s.Vel.Sub(q.Vel).Norm()*q.Dt {
				add(s, sep)
			}
		}
		sort.Slice(hits, func(a, b int) bool { return hits[a].ID < hits[b].ID })
		return hits
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Dist != hits[b].Dist {
			return hits[a].Dist < hits[b].Dist
		}
		return hits[a].ID < hits[b].ID
	})
	return hits
}

func sameHits(a, b []wireHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
