// Command ptbench is the repository benchmark. It runs one workload —
// Barnes-Hut time-stepping (gravity), SPH density passes (sph), or a
// loopback HTTP query service under refreshes (serve) — through the public
// API for a fixed wall-clock window, checks the outputs against references
// computed in this package, and prints one JSON line:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) wrap the visitors with counters, turn on the metrics
// registry, keep the benchmark's own spans in memory, write them out, and
// report the per-layer ledger. Build and run it from the repository root:
//
//	bash ptbench/run.sh --workload gravity --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// sizes holds the workload dimensions; the short-mode test shrinks them.
type sizes struct {
	gravityN, sphN, serveN int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// checks is how many sampled targets each reference check covers.
	checks int
	// refreshEvery replaces every refreshEvery-th request of serve client 0
	// by an Engine.Refresh.
	refreshEvery int
}

var fullSizes = sizes{gravityN: 20000, sphN: 20000, serveN: 40000, setups: 5, checks: 64, refreshEvery: 200}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	size     sizes
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's outcome: the counts and metrics of the result
// line, plus human-readable notes printed above it.
type report struct {
	attempted, failed int64
	correct           bool
	endToEnd          map[string]metric
	layers            map[string]metric
	notes             []string
	spans             []span
}

func newReport() *report {
	return &report{correct: true, endToEnd: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) e2e(name, unit string, v float64)   { r.endToEnd[name] = metric{v, unit} }
func (r *report) layer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation and marks the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	r.notef("FAILED: "+format, args...)
}

// endToEndMetrics and layerMetrics list every reported metric with its
// unit, in print order; every run prints the whole list of its mode.
var endToEndMetrics = [][2]string{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "KB"},
}

var layerMetrics = func() [][2]string {
	out := [][2]string{
		{"trace.op_ms", "ms"},
		{"core.build_ms", "ms"},
		{"core.leafshare_ms", "ms"},
		{"traverse.wall_ms", "ms"},
		{"app.post_ms", "ms"},
		{"core.gather_ms", "ms"},
		{"step.unattributed_ms", "ms"},
	}
	for _, ph := range phaseNames {
		out = append(out, [2]string{"rt.busy_ms." + ph, "ms"})
	}
	return append(out, [][2]string{
		{"rt.utilization", "ratio"},
		{"rt.messages", "count"},
		{"rt.kbytes", "KB"},
		{"rt.tasks", "count"},
		{"rt.steals", "count"},
		{"cache.requests", "count"},
		{"cache.duplicate_requests", "count"},
		{"cache.fills", "count"},
		{"cache.nodes_shipped", "count"},
		{"cache.particles_shipped", "count"},
		{"traverse.visits", "count"},
		{"traverse.opens", "count"},
		{"traverse.prunes", "count"},
		{"traverse.parks", "count"},
		{"traverse.resumes", "count"},
		{"cache.hit_ratio", "ratio"},
		{"cache.fetch_rtt_us_p50", "us"},
		{"kernel.leaf_pairs", "count"},
		{"kernel.node_calls", "count"},
		{"core.incremental_steps", "count"},
		{"core.movers", "count"},
		{"mem.heap_mb", "MB"},
		{"serve.query_ms_p99", "ms"},
		{"serve.http_us_p50", "us"},
		{"serve.queue_wait_us_p50", "us"},
		{"serve.wave_us_p50", "us"},
		{"serve.batch_size_mean", "count"},
		{"serve.refresh_ms", "ms"},
		{"serve.refresh_incremental", "count"},
	}...)
}()

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{size: fullSizes}
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: gravity, sph or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced mode and reports the per-layer metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "ptbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ptbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one workload between two host-speed probes and prints the
// notes, the metrics, and the result line to w.
func run(cfg config, w io.Writer) error {
	var work func(config) (*report, error)
	switch cfg.workload {
	case "gravity":
		work = runGravity
	case "sph":
		work = runSPH
	case "serve":
		work = runServe
	default:
		return fmt.Errorf("unknown --workload %q (gravity, sph, serve)", cfg.workload)
	}
	before := hostProbe()
	rep, err := work(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	after := hostProbe()
	if cfg.trace {
		path := filepath.Join(".bench_build", fmt.Sprintf("ptbench-spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return err
		}
		rep.notef("spans: %d written to %s", len(rep.spans), path)
	}

	out := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	names, have := endToEndMetrics, rep.endToEnd
	if cfg.trace {
		names, have = layerMetrics, rep.layers
	}
	for _, n := range names {
		m, ok := have[n[0]]
		if !ok {
			m = metric{0, n[1]} // a layer this workload does not exercise
		}
		out.Metrics[n[0]] = m
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# host_probe_ms before=%.3f after=%.3f (fixed arithmetic loop; not a benchmark metric)\n", before, after)
	for _, n := range names {
		fmt.Fprintf(w, "# %-28s %14.4f %s\n", n[0], out.Metrics[n[0]].Value, out.Metrics[n[0]].Unit)
	}
	fmt.Fprintf(w, "# workload=%s seed=%d attempted=%d failed=%d correct=%v\n", cfg.workload, cfg.seed, rep.attempted, rep.failed, rep.correct)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostProbe times a fixed arithmetic loop five times and returns the
// median in milliseconds: a reading of host speed, so that a run on a
// slowed host can be told apart from a regression.
func hostProbe() float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := 1.0
		for j := 0; j < 10_000_000; j++ {
			x = x*1.0000001 + 1e-9
		}
		probeSink = x
		ts = append(ts, ms(time.Since(start)))
	}
	return median(ts)
}

var probeSink float64

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics; 0 for none.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
