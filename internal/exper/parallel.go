package exper

import (
	"fmt"

	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/system"
	"dqalloc/internal/workload"
)

// ParallelQueryRow is one cell of the parallel-query study: one
// allocation policy under one plan-placement mode, every replication
// fully audited (operator conservation included), averaged over the
// runner's replications.
type ParallelQueryRow struct {
	// Policy is the allocation policy's name.
	Policy string
	// Mode is the plan-placement mode's name (single, operator, dop).
	Mode string
	// MeanResponse and MeanWait are replication means over completed
	// queries.
	MeanResponse float64
	MeanWait     float64
	// ParallelQueries and Operators are totals across replications:
	// queries that became multi-operator plans, and operator attempts
	// dispatched for them.
	ParallelQueries uint64
	Operators       uint64
	// WideFrac is the fraction of multi-operator plans whose instances
	// landed on two or more distinct sites (0 in single mode by
	// construction).
	WideFrac float64
	// IntermediateBytes is the total ring volume of intermediate operator
	// results across replications.
	IntermediateBytes float64
	// SubnetUtil and DiskUtil are replication means — the price the split
	// pays (ring traffic) and the resource it spreads (disk service).
	SubnetUtil float64
	DiskUtil   float64
	// Completed is the total completions across replications.
	Completed uint64
}

// ParallelWorkloadConfig returns the workload the parallel-query study
// runs on: the Table-7 system with a handful of large scan-heavy
// queries per site instead of many small ones. Low multiprogramming
// makes a single query's makespan disk-bound rather than queueing-bound
// — the regime where splitting the bottom join across sites can pay —
// and every submitted query becomes a join tree so the modes differ on
// the whole workload. Shipping costs stay small (a result page is far
// smaller than its input pages), so the split's overhead is startup
// plus replication, as in the cost model.
func ParallelWorkloadConfig() system.Config {
	cfg := system.Default()
	cfg.MPL = 2
	cfg.ThinkTime = 150
	cfg.Classes = []workload.Class{
		{Name: "io", PageCPUTime: 0.05, NumReads: 48, MsgLength: 1},
		{Name: "cpu", PageCPUTime: 0.4, NumReads: 32, MsgLength: 1},
	}
	par := system.DefaultParallel()
	par.JoinProb = 1
	par.FilterProb = 0.25
	par.SelScan = 0.1
	par.ShipBytesPerPage = 0.02
	par.SplitOverhead = 0.5
	cfg.Parallel = par
	return cfg
}

// ParallelQuerySweep runs each policy under each plan-placement mode on
// the ParallelWorkloadConfig workload with common random numbers and
// full auditing. The study behind the tentpole claim: on a disk-bound
// workload of large join queries, placing operators — and splitting the
// bottom join — across sites must buy a lower mean response time than
// anchoring every plan at one site, and the sweep quantifies the ring
// traffic the improvement costs.
func ParallelQuerySweep(r Runner, kinds []policy.Kind, modes []policy.ParallelMode) ([]ParallelQueryRow, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(modes) == 0 {
		return nil, fmt.Errorf("exper: parallel-query sweep: no placement modes")
	}
	base := ParallelWorkloadConfig()
	rows := make([]ParallelQueryRow, 0, len(kinds)*len(modes))
	for _, kind := range kinds {
		for _, mode := range modes {
			row, err := parallelCell(r, base, kind, mode)
			if err != nil {
				return nil, fmt.Errorf("exper: parallel-query sweep: %w", err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// parallelCell averages one (policy, mode) cell on the base workload
// over the runner's replications, auditing every run.
func parallelCell(r Runner, base system.Config, kind policy.Kind, mode policy.ParallelMode) (ParallelQueryRow, error) {
	cfg := r.applyHorizons(base)
	cfg.PolicyKind = kind
	cfg.Audit = true
	cfg.Parallel.Mode = mode
	row := ParallelQueryRow{Policy: kind.String(), Mode: mode.String()}
	var wide, plans uint64
	for rep := 0; rep < r.Reps; rep++ {
		cfg.Seed = r.BaseSeed + uint64(rep)
		sys, err := newSystem(cfg)
		if err != nil {
			return ParallelQueryRow{}, fmt.Errorf("%v/%v: %w", kind, mode, err)
		}
		res := sys.Run()
		if err := sys.Audit(); err != nil {
			return ParallelQueryRow{}, fmt.Errorf("%v/%v seed %d: %w", kind, mode, cfg.Seed, err)
		}
		row.MeanResponse += res.MeanResponse
		row.MeanWait += res.MeanWait
		row.SubnetUtil += res.SubnetUtil
		row.DiskUtil += res.DiskUtil
		row.ParallelQueries += res.ParallelQueries
		row.Operators += res.Operators
		row.IntermediateBytes += res.IntermediateBytes
		row.Completed += res.Completed
		plans += res.ParallelQueries
		for k := 1; k < len(res.DOPHist); k++ {
			wide += res.DOPHist[k]
		}
	}
	n := float64(r.Reps)
	row.MeanResponse /= n
	row.MeanWait /= n
	row.SubnetUtil /= n
	row.DiskUtil /= n
	if plans > 0 {
		row.WideFrac = float64(wide) / float64(plans)
	}
	return row, nil
}

// JoinHotSpotConfig returns the distributed-join hot-spot workload: six
// sites with a few terminals each, every query a two-way join of 20-page
// scans over an 8-fragment, 2-copy round-robin placement. Scans are
// I/O-bound and the join CPU-bound, so a plan that keeps a hot join at
// one site convoys on that site's CPU. Every run is audited.
func JoinHotSpotConfig() (system.Config, error) {
	cfg := system.Default()
	cfg.MPL = 6
	cfg.ThinkTime = 300
	cfg.Classes = []workload.Class{{Name: "join", PageCPUTime: 0.05, NumReads: 20, MsgLength: 1}}
	cfg.ClassProbs = []float64{1}
	par := system.DefaultParallel()
	par.JoinProb = 1
	par.FilterProb = 0
	par.SelScan = 0.3
	par.SelJoin = 0.5
	par.JoinPageCPU = 1
	par.ShipBytesPerPage = 0.1
	cfg.Parallel = par
	placement, err := replica.NewRoundRobin(cfg.NumSites, 8, 2)
	if err != nil {
		return system.Config{}, err
	}
	cfg.Placement = placement
	cfg.Audit = true
	return cfg, cfg.Validate()
}

// joinHotSpotLeg is one way of placing the hot-spot study's join trees.
type joinHotSpotLeg struct {
	Policy policy.Kind
	Mode   policy.ParallelMode
}

// joinHotSpotLegs are the study's three plan strategies: a static,
// load-blind plan that runs each scan at its fragment's copy nearest the
// home site and keeps the join with the left scan (LOCAL/single),
// load-blind random per-operator placement (RANDOM/operator), and
// dynamic, load-aware per-operator placement (LERT/operator).
var joinHotSpotLegs = []joinHotSpotLeg{
	{policy.Local, policy.ParallelSingle},
	{policy.Random, policy.ParallelOperator},
	{policy.LERT, policy.ParallelOperator},
}

// JoinHotSpotRow is one cell of the hot-spot study: one leg at one hot
// share.
type JoinHotSpotRow struct {
	// HotProb is the share of join trees reading the hot fragment pair.
	HotProb float64
	ParallelQueryRow
}

// JoinHotSpotSweep runs each of the three legs at each hot share on
// the JoinHotSpotConfig workload with common random numbers and full
// auditing. It reproduces the paper's Section 1.1 convoy: when everyone
// submits the same query, a static plan keeps sending it to the same
// few sites, while dynamic subquery allocation spreads the load.
func JoinHotSpotSweep(r Runner, hotShares []float64) ([]JoinHotSpotRow, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(hotShares) == 0 {
		return nil, fmt.Errorf("exper: join hot-spot sweep: no hot shares")
	}
	base, err := JoinHotSpotConfig()
	if err != nil {
		return nil, err
	}
	rows := make([]JoinHotSpotRow, 0, len(hotShares)*len(joinHotSpotLegs))
	for _, hot := range hotShares {
		base.Parallel.HotProb = hot
		for _, leg := range joinHotSpotLegs {
			row, err := parallelCell(r, base, leg.Policy, leg.Mode)
			if err != nil {
				return nil, fmt.Errorf("exper: join hot-spot sweep at hot share %v: %w", hot, err)
			}
			rows = append(rows, JoinHotSpotRow{HotProb: hot, ParallelQueryRow: row})
		}
	}
	return rows, nil
}
