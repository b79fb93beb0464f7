// Package dqalloc is a reproduction of Carey, Livny & Lu, "Dynamic Task
// Allocation in a Distributed Database System" (Univ. of Wisconsin CS TR
// #556, 1984 / ICDCS 1985): a discrete-event simulation of a fully
// replicated distributed database system with multi-class query
// workloads, together with the paper's dynamic query allocation policies
// (BNQ, BNQRD, LERT) and its exact mean-value-analysis study of optimal
// allocations.
//
// This package is the public facade: it re-exports the configuration and
// result types and provides one-call entry points. The building blocks
// live in internal/ packages (see DESIGN.md for the map):
//
//   - internal/sim       — deterministic discrete-event kernel
//   - internal/queue     — FCFS / processor-sharing / disk-array centers
//   - internal/network   — polled token-ring subnet
//   - internal/workload  — multi-class query model
//   - internal/site      — the Figure-2 DB site
//   - internal/policy    — the Figure 3–6 allocation algorithms
//   - internal/loadinfo  — perfect and periodically-broadcast load views
//   - internal/system    — the full Figure-1 closed system
//   - internal/mva       — exact multiclass Mean Value Analysis
//   - internal/optimal   — the Section-3 WIF/FIF study
//   - internal/exper     — one harness per paper table
//
// # Quickstart
//
//	cfg := dqalloc.DefaultConfig()        // the paper's Table-7 baseline
//	cfg.PolicyKind = dqalloc.LERT
//	res, err := dqalloc.Run(cfg)
//	// res.MeanWait is the paper's W̄; res.Fairness its F.
package dqalloc

import (
	"fmt"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/site"
	"dqalloc/internal/stats"
	"dqalloc/internal/system"
	"dqalloc/internal/workload"
)

// Re-exported model types. Config drives a run; Results carries the
// paper's metrics (W̄, F, utilizations, subnet load).
type (
	// Config parameterizes one simulation run.
	Config = system.Config
	// Results holds one run's measurements.
	Results = system.Results
	// ClassResults is the per-class breakdown inside Results.
	ClassResults = system.ClassResults
	// Class describes one query class (Table 2 parameters).
	Class = workload.Class
	// PolicyKind selects a built-in allocation policy.
	PolicyKind = policy.Kind
	// Policy is the allocation-policy interface for custom strategies.
	Policy = policy.Policy
	// FaultConfig parameterizes the fault-injection layer (set
	// Config.Fault to enable site crashes, lossy messaging, and the
	// timeout/retry failover).
	FaultConfig = fault.Config
	// SuspectConfig parameterizes the gray-failure suspicion detector
	// (set Config.Suspect to score each site's realized slowdown against
	// the population and route queries around fail-slow sites).
	SuspectConfig = loadinfo.SuspectConfig
	// NoiseConfig parameterizes the estimation-error injector (set
	// Config.Noise to make allocators decide on perturbed demand
	// estimates while execution consumes the true demands).
	NoiseConfig = noise.Config
	// Tuning holds the selector's anti-herd knobs — hysteresis margin,
	// power-of-K remote sampling, and probabilistic tie-breaking (set
	// Config.Tuning; cost-based policies only).
	Tuning = policy.Tuning
	// AdmissionConfig parameterizes per-site overload admission control
	// (set Config.Admission to bound committed queries per site, with
	// deferred resubmission or immediate shedding on overload).
	AdmissionConfig = system.AdmissionConfig
	// ArrivalConfig parameterizes the open-arrival subsystem (set
	// Config.Arrival to replace the closed terminals with per-class
	// Poisson or bursty MMPP sources at a chosen offered load).
	ArrivalConfig = arrival.Config
	// DeadlineConfig parameterizes per-query deadlines (set
	// Config.Deadline to abort queries whose response time exceeds the
	// budget, wherever they are in the pipeline).
	DeadlineConfig = system.DeadlineConfig
	// HedgeConfig parameterizes hedged execution (set Config.Hedge to
	// re-issue straggling remote queries to a backup site; first
	// completion wins).
	HedgeConfig = system.HedgeConfig
	// ParallelConfig parameterizes operator-tree queries (set
	// Config.Parallel to turn some queries into scan/filter/join plans
	// whose operators the allocator may place — and split — across
	// sites).
	ParallelConfig = system.ParallelConfig
	// ParallelMode selects how a multi-operator plan is placed (see
	// ParallelSingle, ParallelOperator, ParallelDOP).
	ParallelMode = policy.ParallelMode
	// Plan is an operator-tree query plan; Operator is one of its nodes.
	Plan     = workload.Plan
	Operator = workload.Operator
	// Quantiles carries the log-histogram response-time quantiles
	// (p50–p99.9) reported in Results.
	Quantiles = stats.Quantiles
)

// Built-in allocation policies (paper Section 4 plus baselines).
const (
	// Local executes every query at its arrival site.
	Local = policy.Local
	// Random picks a uniformly random site.
	Random = policy.Random
	// BNQ balances the number of queries per site (Figure 4).
	BNQ = policy.BNQ
	// BNQRD balances same-bound query counts (Figure 5).
	BNQRD = policy.BNQRD
	// LERT minimizes the estimated response time (Figure 6).
	LERT = policy.LERT
	// Work balances outstanding estimated work per resource (extension).
	Work = policy.Work
)

// Demand-estimate modes (Section 1.2.2).
const (
	// EstimateClassMean exposes class-mean demands to the allocator.
	EstimateClassMean = workload.EstimateClassMean
	// EstimateActual exposes exact sampled demands (oracle ablation).
	EstimateActual = workload.EstimateActual
)

// Load-information modes (Section 4.4).
const (
	// InfoPerfect gives allocators the live load table.
	InfoPerfect = system.InfoPerfect
	// InfoPeriodic gives allocators periodic snapshots (set InfoPeriod).
	InfoPeriodic = system.InfoPeriodic
)

// Plan-placement modes for Config.Parallel (DESIGN.md §15).
const (
	// ParallelSingle anchors each whole operator tree at one
	// policy-chosen site.
	ParallelSingle = policy.ParallelSingle
	// ParallelOperator places each operator independently; intermediate
	// results ship between sites.
	ParallelOperator = policy.ParallelOperator
	// ParallelDOP additionally splits the bottom join
	// fragment-and-replicate across a cost-chosen set of sites.
	ParallelDOP = policy.ParallelDOP
)

// Disk service distributions.
const (
	// DiskUniform is the paper's Table-7 simulation setting.
	DiskUniform = site.DiskUniform
	// DiskExponential is the Section-3 analytical setting (product form).
	DiskExponential = site.DiskExponential
)

// DefaultFaultConfig returns an enabled fault configuration with
// moderate failure rates (MTTF 10000, MTTR 500, no message loss) and
// the default watchdog settings. Assign it to Config.Fault and adjust.
func DefaultFaultConfig() FaultConfig { return fault.Default() }

// DefaultSlowFaultConfig returns a pure gray-failure fault
// configuration: sites never crash but suffer 10× fail-slow episodes
// every 4000 time units lasting 800 on average, while still answering
// queries and broadcasting load reports. Assign it to Config.Fault and
// adjust; pair with DefaultSuspectConfig to route around the episodes.
func DefaultSlowFaultConfig() FaultConfig { return fault.DefaultSlow() }

// DefaultSuspectConfig returns an enabled gray-failure detector:
// suspect a site once its slowdown EWMA exceeds 3× the population
// median (clearing at 1.5×), with a 500-unit probation. Assign it to
// Config.Suspect and adjust.
func DefaultSuspectConfig() SuspectConfig { return loadinfo.DefaultSuspect() }

// DefaultNoiseConfig returns an enabled estimation-error configuration:
// mean-preserving lognormal noise with sigma 0.5 on both demand
// estimates. Assign it to Config.Noise and adjust.
func DefaultNoiseConfig() NoiseConfig { return noise.Default() }

// DefaultAdmissionConfig returns an enabled admission-control
// configuration: at most 15 committed queries per site, with up to 3
// deferrals (mean resubmission delay 5) before a query is shed. Assign
// it to Config.Admission and adjust.
func DefaultAdmissionConfig() AdmissionConfig { return system.DefaultAdmission() }

// DefaultPoissonArrivals returns an enabled open-arrival configuration
// with a plain Poisson source at the given system-wide rate (queries
// per time unit). Assign it to Config.Arrival and adjust.
func DefaultPoissonArrivals(rate float64) ArrivalConfig { return arrival.DefaultPoisson(rate) }

// DefaultMMPPArrivals returns an enabled open-arrival configuration
// with a 2-state MMPP source at the given mean rate: 4× bursts with
// mean dwell 400 calm / 100 bursting. Assign it to Config.Arrival and
// adjust.
func DefaultMMPPArrivals(rate float64) ArrivalConfig { return arrival.DefaultMMPP(rate) }

// DefaultDeadlineConfig returns an enabled deadline configuration with
// a 400-time-unit response budget. Assign it to Config.Deadline and
// adjust.
func DefaultDeadlineConfig() DeadlineConfig { return system.DefaultDeadline() }

// DefaultHedgeConfig returns an enabled hedging configuration: hedge
// remote stragglers past the p95 of their class's measured responses,
// never earlier than 50 time units after dispatch. Assign it to
// Config.Hedge and adjust.
func DefaultHedgeConfig() HedgeConfig { return system.DefaultHedge() }

// DefaultParallelConfig returns an enabled operator-tree configuration:
// 30% of queries become join plans placed per-operator across sites,
// with the default selectivities and shipping costs. Assign it to
// Config.Parallel, pick a Mode, and adjust.
func DefaultParallelConfig() ParallelConfig { return system.DefaultParallel() }

// DefaultConfig returns the paper's baseline configuration: 6 sites, 2
// disks per site, 20 terminals per site with mean think time 350, a
// 50/50 I/O-bound / CPU-bound mix (per-page CPU 0.05 / 1.0, 20 reads),
// msg_length 1, LERT allocation with perfect load information.
func DefaultConfig() Config { return system.Default() }

// Run executes one simulation of cfg and returns its measurements. With
// cfg.Audit set, a runtime-invariant violation (internal/check) is
// returned as an error alongside the measurements.
func Run(cfg Config) (Results, error) {
	sys, err := system.New(cfg)
	if err != nil {
		return Results{}, err
	}
	res := sys.Run()
	if err := sys.Audit(); err != nil {
		return res, err
	}
	return res, nil
}

// Replications runs cfg reps times with consecutive seeds starting at
// cfg.Seed and returns all results. Use stats from the replications to
// build confidence intervals.
func Replications(cfg Config, reps int) ([]Results, error) {
	if reps < 1 {
		return nil, fmt.Errorf("dqalloc: reps %d < 1", reps)
	}
	out := make([]Results, 0, reps)
	base := cfg.Seed
	for i := 0; i < reps; i++ {
		cfg.Seed = base + uint64(i)
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
