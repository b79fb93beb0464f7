// Command perfbench is the repository benchmark. It runs one workload
// against the simulator or the allocation service, checks the outputs,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"throughput_per_s": {"value": 3.6e6, "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they
// are the per-layer set, measured by timing calls into the program's
// public functions and by sampling a CPU profile. The workloads and
// metrics are described in README.md. Build and run from the repository
// root with
//
//	bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the set printed with -trace 0: what a user of the
// simulator or of the allocation service sees.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p95_us", "us"},
	{"setup_s", "s"},
	{"alloc_b_per_op", "B"},
}

// perLayer is the set printed with -trace 1. A metric that does not
// apply to a workload reads 0 there (for example serve.decided on the
// simulator workloads).
var perLayer = []metricDef{
	// Sampled CPU-profile self time per package, as a share of the
	// traced phase.
	{"sim.self_share", "fraction"},
	{"queue.self_share", "fraction"},
	{"rng.self_share", "fraction"},
	{"math.self_share", "fraction"},
	{"check.self_share", "fraction"},
	{"runtime.self_share", "fraction"},
	{"system.self_share", "fraction"},
	{"site.self_share", "fraction"},
	{"network.self_share", "fraction"},
	{"loadinfo.self_share", "fraction"},
	{"fault.self_share", "fraction"},
	{"replica.self_share", "fraction"},
	{"policy.self_share", "fraction"},
	{"serve.self_share", "fraction"},
	{"nethttp.self_share", "fraction"},
	{"encoding_json.self_share", "fraction"},
	{"bench.profile_samples", "count"},

	// Spans around public calls.
	{"check.audit_share", "fraction"},
	{"system.setup_us", "us"},
	{"policy.select_calls", "count"},
	{"policy.select_ns", "ns"},
	{"policy.select_share", "fraction"},
	{"serve.handler_decide_us_p50", "us"},
	{"serve.handler_decide_us_p99", "us"},
	{"serve.handler_report_us_p50", "us"},
	{"http.outside_handler_us_p50", "us"},
	{"http.client_us_p99", "us"},
	{"serve.loop_us_p50", "us"},
	{"serve.loop_us_p99", "us"},
	{"serve.decode_ns", "ns"},
	{"serve.core_decide_ns", "ns"},
	{"serve.core_report_ns", "ns"},
	{"runtime.gc_cycles", "count"},

	// Tripwires: counts and model outputs a speed-only change must leave
	// bit-identical for a given seed.
	{"sim.events", "count"},
	{"sim.events_per_query", "count"},
	{"sim.wait_mean", "simtime"},
	{"queue.cpu_util", "fraction"},
	{"queue.disk_util", "fraction"},
	{"network.subnet_util", "fraction"},
	{"system.completed", "count"},
	{"system.rejected", "count"},
	{"system.hedged", "count"},
	{"replica.rebuilt", "count"},
	{"fault.slow_episodes", "count"},

	// Service outcome counters from Server.Stats.
	{"serve.decided", "count"},
	{"serve.fallback", "count"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"serve.unavailable", "count"},
	{"serve.breaker_opens", "count"},

	// The benchmark itself.
	{"bench.trace_overhead", "fraction"},
	{"bench.fail_frac", "fraction"},
	{"bench.latency_samples", "count"},
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// quick shrinks batches and horizons so the self-test runs in
	// seconds; the command line never sets it.
	quick bool
	// notes receives the human-readable lines printed before the result.
	notes io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (outcome, error){
	"sim-paper":    func(o options) (outcome, error) { return runSim(simPaper, o) },
	"sim-composed": func(o options) (outcome, error) { return runSim(simComposed, o) },
	"serve-http":   runServe,
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints its result. It returns
// the process exit code: 0 only when every output checked correct.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case !(*seconds > 0) || math.IsInf(*seconds, 1):
		fmt.Fprintf(stderr, "perfbench: -seconds %v must be positive\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace %d must be 0 or 1\n", *trace)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	// Every workload runs on one P. On a small VM a hand-off between
	// vCPUs (the service's client, connection and decision goroutines;
	// the simulator and the GC's workers) costs a wake-up of the other
	// vCPU, which takes as long as a request and drifts with the host's
	// load; it is not code in this repository. On one P the GC's work is
	// also counted in the time of the workload that caused it.
	runtime.GOMAXPROCS(1)
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, notes: stdout}
	res, err := measure(runner, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their checks\n", *name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// measure runs one workload and assembles the metric set its mode
// prints. A metric the workload did not produce is an error for the
// end-to-end set and reads 0 in the per-layer set.
func measure(runner func(options) (outcome, error), o options) (result, error) {
	out, err := runner(o)
	if err != nil {
		return result{}, err
	}
	if out.attempted < 1 {
		return result{}, errors.New("no operations attempted")
	}
	out.metrics["bench.fail_frac"] = float64(out.failed) / float64(out.attempted)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !o.trace {
			return result{}, fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runtimeCounters reads the runtime's cumulative heap-allocation and
// GC-cycle counters without stopping the world.
type runtimeCounters [2]metrics.Sample

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
}

// read returns the bytes allocated and the GC cycles completed so far.
func (c *runtimeCounters) read() (allocBytes, gcCycles uint64) {
	metrics.Read(c[:])
	return c[0].Value.Uint64(), c[1].Value.Uint64()
}

// splitmix64 derives independent-looking 64-bit values from a seed; it
// is how the benchmark turns its -seed into replication seeds and
// request streams.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of vs without reordering it.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// durationsUS converts durations to sorted microseconds.
func durationsUS(ds []time.Duration) []float64 {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	return us
}
