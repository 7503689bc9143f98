package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"paratreet"
	"paratreet/internal/metrics"
)

// span is one timed layer call, recorded from the benchmark's side of the
// API. Spans of one operation share Op; Parent names the enclosing span.
type span struct {
	Op      int64   `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span name's median self time in milliseconds:
// its duration minus the part its child spans cover. Children of one
// parent never overlap here, so coverage is their summed duration.
func selfTimes(spans []span) map[string]float64 {
	type key struct {
		op   int64
		name string
	}
	childUs := map[key]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			childUs[key{s.Op, s.Parent}] += s.DurUs
		}
	}
	per := map[string][]float64{}
	for _, s := range spans {
		per[s.Name] = append(per[s.Name], (s.DurUs-childUs[key{s.Op, s.Name}])/1e3)
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

// selfTimeNote formats selfTimes as one line, in name order.
func selfTimeNote(spans []span) string {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("self time per op (median ms):")
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.3f", n, st[n])
	}
	return b.String()
}

// ledgerBound is the largest share of a step the ledger may leave
// unattributed (as a median over the window's steps).
const ledgerBound = 0.02

// kernelCounts is fed by the counting visitor wrappers of traced runs.
// Each partition counts into its own cache-line-sized slot, so the
// workers never contend on one atomic.
type kernelCounts struct {
	slots [64]kernelSlot
}

type kernelSlot struct {
	leafPairs, nodeCalls atomic.Int64
	_                    [48]byte
}

// totals sums the slots.
func (k *kernelCounts) totals() (leafPairs, nodeCalls int64) {
	for i := range k.slots {
		leafPairs += k.slots[i].leafPairs.Load()
		nodeCalls += k.slots[i].nodeCalls.Load()
	}
	return leafPairs, nodeCalls
}

// countingVisitor wraps an application visitor, counting the particle
// pairs its Leaf calls cover and its Node calls.
type countingVisitor[D any, V paratreet.Visitor[D]] struct {
	inner V
	c     *kernelSlot
}

// counting wraps v for partition p of a traced run.
func counting[D any, V paratreet.Visitor[D]](kc *kernelCounts, p *paratreet.Partition[D], v V) countingVisitor[D, V] {
	return countingVisitor[D, V]{v, &kc.slots[p.ID%len(kc.slots)]}
}

func (v countingVisitor[D, V]) Open(s *paratreet.Node[D], t *paratreet.Bucket) bool {
	return v.inner.Open(s, t)
}

func (v countingVisitor[D, V]) Node(s *paratreet.Node[D], t *paratreet.Bucket) {
	v.c.nodeCalls.Add(1)
	v.inner.Node(s, t)
}

func (v countingVisitor[D, V]) Leaf(s *paratreet.Node[D], t *paratreet.Bucket) {
	v.c.leafPairs.Add(int64(len(s.Particles) * len(t.Particles)))
	v.inner.Leaf(s, t)
}

// timedDriver wraps an application driver and stamps its hook entries and
// exits, splitting a Run(1) step into build, traversal, post-traversal
// and gather segments from outside the library.
type timedDriver[D any] struct {
	app                 paratreet.Driver[D]
	trav, post, postEnd time.Time
}

func (d *timedDriver[D]) Traversal(s *paratreet.Simulation[D], iter int) {
	d.trav = time.Now()
	d.app.Traversal(s, iter)
}

func (d *timedDriver[D]) PostTraversal(s *paratreet.Simulation[D], iter int) {
	d.post = time.Now()
	d.app.PostTraversal(s, iter)
	d.postEnd = time.Now()
}

// simWorkload is one time-stepping workload for runSim.
type simWorkload[D any] struct {
	// newSim generates the inputs and constructs the simulation; reg is
	// the metrics registry of traced runs (nil otherwise).
	newSim func(reg *paratreet.MetricsRegistry) (*paratreet.Simulation[D], error)
	// driver returns the application driver; kc is nil in untraced runs,
	// which use the bare visitors.
	driver func(kc *kernelCounts) paratreet.Driver[D]
	// warmup is how many steps set-up runs after the first build.
	warmup int
	// check runs the reference checks on the resident simulation after
	// the window: one more step with driver d, whose outputs it compares
	// against references, reporting a mismatch with rep.fail.
	check func(sim *paratreet.Simulation[D], d paratreet.Driver[D], rep *report) error
}

// stepSample is one step's ledger and counters.
type stepSample struct {
	step, build, leafshare, traverse, post, gather time.Duration
	stats                                          paratreet.StatsSnapshot
	phases                                         [paratreet.NumPhases]time.Duration
	reg                                            map[string]int64
	leafPairs, nodeCalls                           int64
	mode, reason                                   string
	movers                                         int
}

func (s *stepSample) unattributed() time.Duration {
	return s.step - s.build - s.leafshare - s.traverse - s.post - s.gather
}

// phaseNames are the runtime phases as metric-name suffixes.
var phaseNames = func() []string {
	out := make([]string, paratreet.NumPhases)
	for i := range out {
		out[i] = strings.ReplaceAll(paratreet.Phase(i).String(), "-", "_")
	}
	return out
}()

// regCounters are the registry counters a traced step reads.
var regCounters = []string{metrics.CTraverseVisits, metrics.CTraverseOpens, metrics.CTraversePrunes,
	metrics.CTraverseParks, metrics.CTraverseResumes, metrics.CCacheHits, metrics.CCacheMisses}

// runSim sets the workload up cfg.size.setups times (setup_s is the
// median), steps the last simulation with Run(1) for the window, checks
// its outputs, and reports the end-to-end metrics or the traced ledger.
func runSim[D any](cfg config, w simWorkload[D]) (*report, error) {
	rep := newReport()
	var kc *kernelCounts
	if cfg.trace {
		kc = &kernelCounts{}
	}
	var sim *paratreet.Simulation[D]
	var reg *paratreet.MetricsRegistry
	var driver *timedDriver[D]
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		if sim != nil {
			sim.Close()
			sim = nil
			runtime.GC()
		}
		start := time.Now()
		if cfg.trace {
			reg = paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
		}
		var err error
		if sim, err = w.newSim(reg); err != nil {
			return nil, err
		}
		driver = &timedDriver[D]{app: w.driver(kc)}
		if err := sim.Run(1+w.warmup, driver); err != nil {
			sim.Close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sim.Close()

	var samples []stepSample
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if reg != nil {
		reg.Sketch(metrics.HCacheFetchRTT).Reset()
	}
	start := time.Now()
	for time.Since(start) < cfg.window {
		var s stepSample
		var before paratreet.StatsSnapshot
		var phases0 [paratreet.NumPhases]time.Duration
		var reg0 map[string]int64
		var lp0, nc0 int64
		if cfg.trace {
			before, phases0, reg0 = sim.Stats(), sim.Machine().PhaseTotals(), readCounters(reg)
			lp0, nc0 = kc.totals()
		}
		t0 := time.Now()
		err := sim.Run(1, driver)
		t1 := time.Now()
		rep.attempted++
		if err != nil {
			rep.fail("step %d: %v", rep.attempted, err)
			break
		}
		s.step = t1.Sub(t0)
		s.build, s.leafshare = sim.LastBuildTime(), sim.LeafShareTime()
		s.traverse = driver.post.Sub(driver.trav)
		s.post = driver.postEnd.Sub(driver.post)
		s.gather = t1.Sub(driver.postEnd)
		bs := sim.BuildStats()
		s.mode, s.reason, s.movers = bs.Mode, bs.FallbackReason, bs.Movers
		if cfg.trace {
			s.stats = statsDelta(sim.Stats(), before)
			phases := sim.Machine().PhaseTotals()
			for i := range phases {
				s.phases[i] = phases[i] - phases0[i]
			}
			s.reg = readCounters(reg)
			for k, v := range reg0 {
				s.reg[k] -= v
			}
			lp, nc := kc.totals()
			s.leafPairs, s.nodeCalls = lp-lp0, nc-nc0
			rep.spans = append(rep.spans, stepSpans(rep.attempted, t0.Sub(start), &s, driver.trav.Sub(t0), driver.post.Sub(t0), driver.postEnd.Sub(t0))...)
		}
		samples = append(samples, s)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	heap := liveHeapMB()
	var fetchRTT int64
	if reg != nil {
		fetchRTT = reg.Sketch(metrics.HCacheFetchRTT).Snapshot().P50
	}

	if len(samples) == 0 {
		return nil, fmt.Errorf("no step completed in the window: %v", rep.notes)
	}
	if rep.failed == 0 {
		rep.attempted++
		if err := w.check(sim, driver, rep); err != nil {
			rep.fail("check step: %v", err)
		}
	}

	steps := float64(len(samples))
	durs := pick(samples, func(s *stepSample) float64 { return ms(s.step) })
	rep.e2e("setup_s", "s", median(setups))
	rep.e2e("op_ms", "ms", median(durs))
	rep.e2e("ops_per_s", "1/s", steps/elapsed.Seconds())
	rep.e2e("alloc_kb_per_op", "KB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/steps)
	rep.layer("mem.heap_mb", "MB", heap)
	rep.notef("live heap %.2f MB after two forced GCs", heap)
	rep.notef("%d steps in %.2f s; setup runs %v s", len(samples), elapsed.Seconds(), setups)
	rep.notef("builds: %s", buildModes(samples))

	if cfg.trace {
		layerLedger(rep, samples, fetchRTT, sim.Machine().NumProcs()*sim.Machine().Proc(0).NumWorkers())
	}
	return rep, nil
}

// layerLedger reports the per-layer medians of a traced window and checks
// that the layers conserve the step time.
func layerLedger(rep *report, samples []stepSample, fetchRTTns int64, workers int) {
	med := func(f func(s *stepSample) float64) float64 { return median(pick(samples, f)) }
	step := med(func(s *stepSample) float64 { return ms(s.step) })
	rep.layer("trace.op_ms", "ms", step)
	rep.layer("core.build_ms", "ms", med(func(s *stepSample) float64 { return ms(s.build) }))
	rep.layer("core.leafshare_ms", "ms", med(func(s *stepSample) float64 { return ms(s.leafshare) }))
	rep.layer("traverse.wall_ms", "ms", med(func(s *stepSample) float64 { return ms(s.traverse) }))
	rep.layer("app.post_ms", "ms", med(func(s *stepSample) float64 { return ms(s.post) }))
	rep.layer("core.gather_ms", "ms", med(func(s *stepSample) float64 { return ms(s.gather) }))
	un := med(func(s *stepSample) float64 { return ms(s.unattributed()) })
	rep.layer("step.unattributed_ms", "ms", un)
	for i, ph := range phaseNames {
		rep.layer("rt.busy_ms."+ph, "ms", med(func(s *stepSample) float64 { return ms(s.phases[i]) }))
	}
	idle := paratreet.PhaseIdle
	rep.layer("rt.utilization", "ratio", med(func(s *stepSample) float64 {
		var busy time.Duration
		for i, d := range s.phases {
			if paratreet.Phase(i) != idle {
				busy += d
			}
		}
		return busy.Seconds() / (float64(workers) * s.step.Seconds())
	}))
	stat := func(name string, f func(st *paratreet.StatsSnapshot) int64) {
		rep.layer(name, "count", med(func(s *stepSample) float64 { return float64(f(&s.stats)) }))
	}
	stat("rt.messages", func(st *paratreet.StatsSnapshot) int64 { return st.MessagesSent })
	rep.layer("rt.kbytes", "KB", med(func(s *stepSample) float64 { return float64(s.stats.BytesSent) / 1024 }))
	stat("rt.tasks", func(st *paratreet.StatsSnapshot) int64 { return st.TasksRun })
	stat("rt.steals", func(st *paratreet.StatsSnapshot) int64 { return st.Steals })
	stat("cache.requests", func(st *paratreet.StatsSnapshot) int64 { return st.NodeRequests })
	stat("cache.duplicate_requests", func(st *paratreet.StatsSnapshot) int64 { return st.DuplicateRequests })
	stat("cache.fills", func(st *paratreet.StatsSnapshot) int64 { return st.Fills })
	stat("cache.nodes_shipped", func(st *paratreet.StatsSnapshot) int64 { return st.NodesShipped })
	stat("cache.particles_shipped", func(st *paratreet.StatsSnapshot) int64 { return st.ParticlesShipped })
	for _, n := range []string{"traverse.visits", "traverse.opens", "traverse.prunes", "traverse.parks", "traverse.resumes"} {
		rep.layer(n, "count", med(func(s *stepSample) float64 { return float64(s.reg[n]) }))
	}
	rep.layer("cache.hit_ratio", "ratio", med(func(s *stepSample) float64 {
		hits := s.reg[metrics.CCacheHits]
		return ratio(hits, hits+s.reg[metrics.CCacheMisses])
	}))
	rep.layer("cache.fetch_rtt_us_p50", "us", float64(fetchRTTns)/1e3)
	rep.layer("kernel.leaf_pairs", "count", med(func(s *stepSample) float64 { return float64(s.leafPairs) }))
	rep.layer("kernel.node_calls", "count", med(func(s *stepSample) float64 { return float64(s.nodeCalls) }))
	inc := 0
	for i := range samples {
		if samples[i].mode == "incremental" {
			inc++
		}
	}
	rep.layer("core.incremental_steps", "count", float64(inc))
	rep.layer("core.movers", "count", med(func(s *stepSample) float64 { return float64(s.movers) }))

	share := 0.0
	if step > 0 {
		share = med(func(s *stepSample) float64 { return math.Abs(s.unattributed().Seconds()) / s.step.Seconds() })
	}
	verdict := "ok"
	if share > ledgerBound {
		verdict = "VIOLATED"
	}
	rep.notef("ledger: median |unattributed|/step = %.4f (bound %.2f): %s", share, ledgerBound, verdict)
	rep.notef("%s", selfTimeNote(rep.spans))
}

// stepSpans lays one step out as spans: the Run(1) call, and inside it
// the build and leaf share (durations from the library's own timers,
// placed at the step's start) and the hook-delimited segments.
func stepSpans(op int64, at time.Duration, s *stepSample, trav, post, postEnd time.Duration) []span {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	base := us(at)
	return []span{
		{op, "step", "", base, us(s.step)},
		{op, "core.build", "step", base, us(s.build)},
		{op, "core.leafshare", "step", base + us(s.build), us(s.leafshare)},
		{op, "traverse", "step", base + us(trav), us(s.traverse)},
		{op, "app.post", "step", base + us(post), us(s.post)},
		{op, "core.gather", "step", base + us(postEnd), us(s.gather)},
	}
}

// buildModes summarizes the window's build paths, e.g.
// "scratch=58 (universe-changed=58)".
func buildModes(samples []stepSample) string {
	modes, reasons := map[string]int{}, map[string]int{}
	for i := range samples {
		modes[samples[i].mode]++
		if r := samples[i].reason; r != "" {
			reasons[r]++
		}
	}
	return countsString(modes) + " fallback reasons: " + countsString(reasons)
}

func countsString(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

func readCounters(reg *paratreet.MetricsRegistry) map[string]int64 {
	out := make(map[string]int64, len(regCounters))
	for _, n := range regCounters {
		out[n] = reg.Counter(n).Value()
	}
	return out
}

func pick(samples []stepSample, f func(s *stepSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = f(&samples[i])
	}
	return out
}

// liveHeapMB is the live heap after two forced collections: one GC can
// leave objects that finalizers or sweeping free on the next.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// statsDelta returns the counters accumulated between two snapshots.
func statsDelta(after, before paratreet.StatsSnapshot) paratreet.StatsSnapshot {
	return paratreet.StatsSnapshot{
		MessagesSent:      after.MessagesSent - before.MessagesSent,
		BytesSent:         after.BytesSent - before.BytesSent,
		NodeRequests:      after.NodeRequests - before.NodeRequests,
		DuplicateRequests: after.DuplicateRequests - before.DuplicateRequests,
		Fills:             after.Fills - before.Fills,
		NodesShipped:      after.NodesShipped - before.NodesShipped,
		ParticlesShipped:  after.ParticlesShipped - before.ParticlesShipped,
		TasksRun:          after.TasksRun - before.TasksRun,
		Steals:            after.Steals - before.Steals,
	}
}
