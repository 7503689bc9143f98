package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the whole benchmark runs in seconds.
var tinySizes = sizes{gravityN: 2000, sphN: 2000, serveN: 4000, setups: 1, checks: 16, refreshEvery: 20}

// runTiny runs one workload in one mode at tiny size and returns the
// parsed result line and the full output.
func runTiny(t *testing.T, workload string, trace bool) (result, string) {
	t.Helper()
	cfg := config{
		workload: workload,
		seed:     3,
		window:   time.Second,
		trace:    trace,
		size:     tinySizes,
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res, out.String()
}

func TestWorkloadsShort(t *testing.T) {
	for _, w := range []string{"gravity", "sph", "serve"} {
		t.Run(w, func(t *testing.T) {
			res, out := runTiny(t, w, false)
			for _, m := range endToEndMetrics {
				if v := res.Metrics[m[0]]; !(v.Value > 0) || v.Unit != m[1] {
					t.Errorf("%s: %s = %v %q, want a positive value in %s\n%s", w, m[0], v.Value, v.Unit, m[1], out)
				}
			}

			res, out = runTiny(t, w, true)
			for _, m := range layerMetrics {
				if v, ok := res.Metrics[m[0]]; !ok || v.Unit != m[1] {
					t.Errorf("%s: traced run lacks %s in %s\n%s", w, m[0], m[1], out)
				}
			}
			if w == "serve" {
				if !strings.Contains(out, "(mode/fallback reason): scratch/universe-changed=") {
					t.Errorf("serve: refresh fallback reason not printed\n%s", out)
				}
				return
			}
			if w == "gravity" && !strings.Contains(out, "fallback reasons: universe-changed=") {
				t.Errorf("gravity: build fallback reason not printed\n%s", out)
			}
			// The ledger conserves: the layers leave at most ledgerBound of
			// the step unattributed.
			step, un := res.Metrics["trace.op_ms"].Value, res.Metrics["step.unattributed_ms"].Value
			if !(step > 0) || un < 0 || un > ledgerBound*step {
				t.Errorf("%s: unattributed %.4f ms of a %.4f ms step exceeds %.0f%%\n%s", w, un, step, 100*ledgerBound, out)
			}
			if !strings.Contains(out, "ledger: ") || strings.Contains(out, "VIOLATED") {
				t.Errorf("%s: ledger check missing or violated\n%s", w, out)
			}
		})
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the printed metrics in
// step: every declared metric is printed with the declared unit, and
// every printed metric is declared.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bj struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []decl, printed [][2]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		want := map[string]string{}
		for _, m := range printed {
			want[m[0]] = m[1]
		}
		for _, d := range declared {
			if u, ok := want[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: BENCHMARK.json declares %s in %s; the benchmark prints it in %q", kind, d.Name, d.Unit, u)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, layerMetrics)
}
