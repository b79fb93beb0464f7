package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsReportEveryMetric runs every workload once on short
// horizons, untraced and traced, and checks that each named metric is
// present, finite and carries a unit, that every end-to-end metric is
// non-zero, and that no operation failed its checks.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for name, runner := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{seed: 7, seconds: 0.3, trace: trace, quick: true, notes: io.Discard}
			res, err := measure(runner, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, d.name, v.Value)
				case v.Unit == "":
					t.Errorf("%s trace=%v: metric %s has no unit", name, trace, d.name)
				case !trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v.Value)
				}
			}
			if trace && res.Metrics["bench.fail_frac"].Value != 0 {
				t.Errorf("%s: fail_frac %v", name, res.Metrics["bench.fail_frac"].Value)
			}
		}
	}
}

// TestTracedRunCoversLayers checks that the traced runs attribute time
// where each workload spends it: the kernel on sim-paper, the auditors
// on sim-composed, the service on serve-http.
func TestTracedRunCoversLayers(t *testing.T) {
	want := map[string][]string{
		"sim-paper":    {"sim.self_share", "policy.select_calls", "sim.events", "system.setup_us"},
		"sim-composed": {"check.self_share", "check.audit_share", "system.hedged", "replica.rebuilt", "fault.slow_episodes"},
		"serve-http":   {"serve.decided", "serve.handler_decide_us_p50", "serve.core_decide_ns", "serve.decode_ns", "serve.loop_us_p50"},
	}
	for name, metrics := range want {
		o := options{seed: 3, seconds: 0.6, trace: true, quick: true, notes: io.Discard}
		res, err := measure(workloads[name], o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range metrics {
			if !(res.Metrics[m].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the command in step:
// the same workloads, and the same metric names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, " "); got != strings.Trim(workloadNames(), "[]") {
		t.Errorf("BENCHMARK.json workloads %q, command has %s", got, workloadNames())
	}
	for _, c := range []struct {
		section string
		spec    []metric
		defs    []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the command", c.section, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command has %s (%s)", c.section, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dqalloc/internal/sim.(*Calendar).place":              "sim",
		"dqalloc/internal/serve.(*Server).loop":               "serve",
		"dqalloc/internal/serve/chaostest.Run":                "serve",
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/atomic.(*Uint32).Load":              "runtime",
		"math.Log":                                            "math",
		"net/http.(*conn).serve":                              "nethttp",
		"encoding/json.(*decodeState).object":                 "encoding_json",
		"main.(*service).roundTrip":                           "bench",
		"slices.SortFunc[go.shape.[]dqalloc/internal/sim.Ev]": "slices",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-paper", "--seconds", "0"},
		{"--workload", "sim-paper", "--trace", "2"},
		{"--workload", "sim-paper", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%q) = 0, want non-zero", args)
		}
	}
}

// TestPassDetectsDivergence checks the sim correctness gate bites: a
// replication that no longer reproduces its reference results, or that
// fails its audit, counts as failed.
func TestPassDetectsDivergence(t *testing.T) {
	b, err := newSimBatch(simComposed, options{seed: 5, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b.pass(variant{digest: true}, false)
	if b.failed != 0 {
		t.Fatalf("reference pass: %v", b.firstErr)
	}
	b.pass(variant{timed: true, digest: true}, false)
	if b.failed != 0 {
		t.Fatalf("timed twin diverged: %v", b.firstErr)
	}
	b.ref[1].TraceDigest++
	b.pass(variant{digest: true}, false)
	if b.failed != 1 {
		t.Errorf("a changed digest gave %d failures, want 1", b.failed)
	}
}

func TestCheckDecision(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"site":3,"mode":"policy","policy":"LERT"}` + "\n":   true,
		`{"mode":"policy","site":5,"policy":"LERT"}`:          true,
		`{"site":6,"mode":"policy","policy":"LERT"}` + "\n":   false,
		`{"site":-1,"mode":"policy","policy":"LERT"}`:         false,
		`{"site":2,"mode":"fallback","policy":"LERT"}`:        false,
		`{"site":2,"mode":"policy","policy":"LERT"} trailing`: false,
		`{"error":"no routable sites"}`:                       false,
	} {
		if err := checkDecision([]byte(body), 6); (err == nil) != ok {
			t.Errorf("checkDecision(%q) = %v, want ok=%v", body, err, ok)
		}
	}
}
