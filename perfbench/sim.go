package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"dqalloc/internal/exper"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/system"
	"dqalloc/internal/workload"
)

// simWorkload is a batch of independent replications of one model
// configuration, run one after another on one goroutine.
type simWorkload struct {
	name string
	// reps is the batch size: one pass runs every replication once.
	reps int
	// audited workloads run with Config.Audit on.
	audited bool
	// config returns the model for one replication seed.
	config func(seed uint64, quick bool) (system.Config, error)
}

// simPaper is the paper's closed model (Table 7, full replication,
// perfect information) under LERT at 16 sites, with no extensions and
// the auditors off.
var simPaper = simWorkload{name: "sim-paper", reps: 40, config: paperConfig}

// simComposed composes the subsystems on 6 sites with every auditor on.
var simComposed = simWorkload{name: "sim-composed", reps: 24, audited: true, config: composedConfig}

func paperConfig(seed uint64, quick bool) (system.Config, error) {
	cfg := system.Default()
	cfg.NumSites = 16
	cfg.PolicyKind = policy.LERT
	cfg.Seed = seed
	cfg.Warmup, cfg.Measure = 500, 2000
	if quick {
		cfg.Warmup, cfg.Measure = 100, 300
	}
	return cfg, cfg.Validate()
}

// composedConfig runs operator-tree queries in dop mode on a 2-copy
// partial placement with the self-healing replica manager, under crash
// faults with watchdog retry, fail-slow episodes and ring brownouts,
// with suspicion, hedging, deadlines and periodic load information.
func composedConfig(seed uint64, quick bool) (system.Config, error) {
	cfg := exper.ParallelWorkloadConfig()
	cfg.PolicyKind = policy.LERT
	cfg.Parallel.Mode = policy.ParallelDOP
	cfg.Parallel.Hedge = true
	cfg.Hedge = system.HedgeConfig{Enabled: true, Quantile: 0.9, MinDelay: 25}
	cfg.Deadline = system.DeadlineConfig{Enabled: true, Deadline: 600}
	cfg.Fault = fault.Config{
		Enabled:        true,
		MTTF:           4000,
		MTTR:           300,
		DetectTimeout:  150,
		RetryBackoff:   10,
		MaxRetries:     6,
		SlowMTTF:       3000,
		SlowMTTR:       500,
		SlowFactor:     4,
		BrownoutMTTF:   4000,
		BrownoutMTTR:   300,
		BrownoutFactor: 3,
	}
	cfg.Suspect = loadinfo.DefaultSuspect()
	cfg.InfoMode = system.InfoPeriodic
	cfg.InfoPeriod = 20
	placement, err := replica.NewRoundRobin(cfg.NumSites, 10*cfg.NumSites, 2)
	if err != nil {
		return system.Config{}, err
	}
	cfg.Placement = placement
	cfg.Replication = replica.DefaultManager()
	cfg.Audit = true
	cfg.Seed = seed
	cfg.Warmup, cfg.Measure = 500, 6000
	if quick {
		cfg.Warmup, cfg.Measure = 100, 800
	}
	return cfg, cfg.Validate()
}

// selectTimer wraps a policy and times every Select call. Wrapping
// policy.New(kind, n, nil) leaves a deterministic policy's decisions
// unchanged; the digest check proves it on every traced run.
type selectTimer struct {
	inner policy.Policy
	calls *uint64
	ns    *time.Duration
}

func (p selectTimer) Name() string { return p.inner.Name() }

func (p selectTimer) Select(q *workload.Query, arrival int, env *policy.Env) int {
	t0 := time.Now()
	site := p.inner.Select(q, arrival, env)
	*p.ns += time.Since(t0)
	*p.calls++
	return site
}

// variant is how a pass runs each replication.
type variant struct {
	noAudit bool // turn the auditors off
	digest  bool // maintain the event-stream digest
	timed   bool // wrap the policy in a selectTimer
}

// passStats is one pass over the batch.
type passStats struct {
	setup, run time.Duration // summed over the batch
	events     uint64
	alloc      uint64
}

// throughput is the pass's events per host second of Run.
func (p passStats) throughput() float64 { return float64(p.events) / p.run.Seconds() }

// simBatch runs passes over one seeded batch and checks every
// replication against the reference pass.
type simBatch struct {
	w    simWorkload
	cfgs []system.Config
	ref  []system.Results // reference pass, digests on

	attempted, failed int64
	firstErr          error

	runTimes    []time.Duration // Run time of every timed replication
	selectCalls uint64
	selectNS    time.Duration
	counters    *runtimeCounters
}

func newSimBatch(w simWorkload, o options) (*simBatch, error) {
	b := &simBatch{w: w, counters: newRuntimeCounters()}
	reps := w.reps
	if o.quick {
		reps = 3
	}
	sm := splitmix64(o.seed)
	for i := 0; i < reps; i++ {
		cfg, err := w.config(sm.next(), o.quick)
		if err != nil {
			return nil, fmt.Errorf("replication %d: %w", i, err)
		}
		b.cfgs = append(b.cfgs, cfg)
	}
	return b, nil
}

// fail records one failed replication.
func (b *simBatch) fail(err error) {
	b.failed++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// pass runs every replication once under v. The reference pass (ref ==
// nil) records the results; every later pass must reproduce them.
func (b *simBatch) pass(v variant, keepTimes bool) passStats {
	var ps passStats
	record := b.ref == nil
	for i, cfg := range b.cfgs {
		if v.noAudit {
			cfg.Audit = false
		}
		cfg.TraceDigest = v.digest
		if v.timed {
			inner, err := policy.New(cfg.PolicyKind, cfg.NumSites, nil)
			if err != nil {
				b.attempted++
				b.fail(err)
				continue
			}
			cfg.CustomPolicy = selectTimer{inner: inner, calls: &b.selectCalls, ns: &b.selectNS}
		}
		a0, _ := b.counters.read()
		t0 := time.Now()
		sys, err := system.New(cfg)
		t1 := time.Now()
		b.attempted++
		if err != nil {
			b.fail(fmt.Errorf("replication %d: %w", i, err))
			continue
		}
		res := sys.Run()
		t2 := time.Now()
		a1, _ := b.counters.read()
		ps.alloc += a1 - a0
		ps.setup += t1.Sub(t0)
		ps.run += t2.Sub(t1)
		ps.events += res.EventsFired
		if keepTimes {
			b.runTimes = append(b.runTimes, t2.Sub(t1))
		}
		if record {
			b.ref = append(b.ref, res)
		}
		want := b.ref[i]
		if !v.digest {
			want.TraceDigest = 0
		}
		if err := sys.Audit(); err != nil {
			b.fail(fmt.Errorf("replication %d: audit: %w", i, err))
		} else if !sameResults(res, want) {
			b.fail(fmt.Errorf("replication %d (seed %d) did not reproduce its reference results", i, cfg.Seed))
		}
	}
	return ps
}

// sameResults compares two runs' results field by field; fmt prints
// NaN fields alike, which reflect.DeepEqual would not.
func sameResults(a, b system.Results) bool {
	return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

// phase runs passes under v until the given seconds elapse (at least
// two passes).
func (b *simBatch) phase(v variant, seconds float64, keepTimes bool) []passStats {
	var out []passStats
	start := time.Now()
	for len(out) < 2 || time.Since(start).Seconds() < seconds {
		out = append(out, b.pass(v, keepTimes))
	}
	return out
}

// digest folds the batch's per-replication event digests into one.
func (b *simBatch) digest() uint64 {
	h := fnv.New64a()
	for _, r := range b.ref {
		h.Write(binary.LittleEndian.AppendUint64(nil, r.TraceDigest))
	}
	return h.Sum64()
}

// runSim measures one simulator workload.
func runSim(w simWorkload, o options) (outcome, error) {
	b, err := newSimBatch(w, o)
	if err != nil {
		return outcome{}, err
	}
	// The reference pass warms the process up and fixes every
	// replication's results and event digest.
	b.pass(variant{digest: true}, false)
	if len(b.ref) != len(b.cfgs) {
		return outcome{}, fmt.Errorf("reference pass: %w", b.firstErr)
	}
	m := b.tripwires()

	if !o.trace {
		passes := b.phase(variant{}, o.seconds, true)
		var thr, setup []float64
		var alloc, events uint64
		for _, p := range passes {
			thr = append(thr, p.throughput())
			setup = append(setup, p.setup.Seconds())
			alloc += p.alloc
			events += p.events
		}
		lat := durationsUS(b.runTimes)
		m["throughput_per_s"] = median(thr)
		m["setup_s"] = median(setup)
		m["latency_p50_us"] = quantile(lat, 0.5)
		m["latency_p95_us"] = quantile(lat, 0.95)
		m["alloc_b_per_op"] = float64(alloc) / float64(events)
		fmt.Fprintf(o.notes, "%s: %d passes of %d replications, %d latency samples\n", w.name, len(passes), len(b.cfgs), len(lat))
	} else {
		if err := b.traced(o, m); err != nil {
			return outcome{}, err
		}
	}
	fmt.Fprintf(o.notes, "%s: seed=%d sim.events=%d sim.wait_mean=%.17g digest=%016x\n",
		w.name, o.seed, uint64(m["sim.events"]), m["sim.wait_mean"], b.digest())
	if b.firstErr != nil {
		fmt.Fprintf(o.notes, "%s: first failure: %v\n", w.name, b.firstErr)
	}
	return outcome{attempted: b.attempted, failed: b.failed, metrics: m}, nil
}

// tripwires reads the reference pass's model outputs: for a given seed
// a speed-only change must leave every one bit-identical.
func (b *simBatch) tripwires() map[string]float64 {
	var events, completed, rejected, hedged, rebuilt, slow uint64
	var wait, cpu, disk, subnet float64
	for _, r := range b.ref {
		events += r.EventsFired
		completed += r.Completed
		rejected += r.QueriesRejected
		hedged += r.Hedged
		rebuilt += r.ReplicasRebuilt
		slow += r.SlowEpisodes
		wait += r.MeanWait
		cpu += r.CPUUtil
		disk += r.DiskUtil
		subnet += r.SubnetUtil
	}
	n := float64(len(b.ref))
	return map[string]float64{
		"sim.events":           float64(events),
		"sim.events_per_query": float64(events) / float64(completed),
		"sim.wait_mean":        wait / n,
		"queue.cpu_util":       cpu / n,
		"queue.disk_util":      disk / n,
		"network.subnet_util":  subnet / n,
		"system.completed":     float64(completed),
		"system.rejected":      float64(rejected),
		"system.hedged":        float64(hedged),
		"replica.rebuilt":      float64(rebuilt),
		"fault.slow_episodes":  float64(slow),
	}
}

// traced measures the per-layer metrics: an untraced phase (alternating
// audited and unaudited passes on audited workloads), then a traced
// phase with the policy timer and the CPU profiler on, then digest-on
// twins of the traced and unaudited variants, which must reproduce the
// reference pass bit for bit.
func (b *simBatch) traced(o options, m map[string]float64) error {
	var plain, setup, auditShare []float64
	start := time.Now()
	for len(plain) < 2 || time.Since(start).Seconds() < o.seconds/2 {
		p := b.pass(variant{}, false)
		plain = append(plain, p.throughput())
		setup = append(setup, p.setup.Seconds())
		if b.w.audited {
			u := b.pass(variant{noAudit: true}, false)
			auditShare = append(auditShare, 1-p.throughput()/u.throughput())
		}
	}

	prof, err := startProfile()
	if err != nil {
		return err
	}
	_, gc0 := b.counters.read()
	passes := b.phase(variant{timed: true}, o.seconds/2, false)
	_, gc1 := b.counters.read()
	shares, samples, err := prof.stop()
	if err != nil {
		return err
	}
	var traced []float64
	var run time.Duration
	for _, p := range passes {
		traced = append(traced, p.throughput())
		run += p.run
	}
	calls, selectNS := b.selectCalls, b.selectNS

	b.pass(variant{timed: true, digest: true}, false)
	if b.w.audited {
		b.pass(variant{noAudit: true, digest: true}, false)
	}

	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.name, ".self_share"); ok {
			m[d.name] = shares[layer]
		}
	}
	m["bench.profile_samples"] = float64(samples)
	m["runtime.gc_cycles"] = float64(gc1 - gc0)
	m["check.audit_share"] = median(auditShare)
	m["system.setup_us"] = median(setup) / float64(len(b.cfgs)) * 1e6
	m["policy.select_calls"] = float64(calls) / float64(len(passes))
	m["policy.select_ns"] = float64(selectNS) / float64(calls)
	m["policy.select_share"] = selectNS.Seconds() / run.Seconds()
	m["bench.trace_overhead"] = 1 - median(traced)/median(plain)
	fmt.Fprintf(o.notes, "%s: %d untraced and %d traced passes, %d profile samples\n", b.w.name, len(plain), len(passes), samples)
	return nil
}
