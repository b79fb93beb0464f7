package system

import (
	"math"
	"reflect"
	"testing"

	"dqalloc/internal/fault"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/sim"
)

// parallelCfg returns the shared short-horizon base with operator trees
// enabled at the given join probability and mode.
func parallelCfg(kind policy.Kind, joinProb float64, mode policy.ParallelMode) Config {
	cfg := imperfectCfg(kind, InfoPerfect)
	par := DefaultParallel()
	par.JoinProb = joinProb
	par.Mode = mode
	cfg.Parallel = par
	return cfg
}

// TestParallelSingleOpDifferential is the differential harness of the
// parallel-query extension: with the subsystem enabled but every plan
// degenerating to a single scan (JoinProb 0), each policy must
// reproduce the monolithic model bit for bit — identical trace digest
// and identical Results, for every placement mode. This holds by
// construction (single-operator plans bypass the engine entirely and
// the sampler draws from its own dedicated stream), and this test keeps
// it true.
func TestParallelSingleOpDifferential(t *testing.T) {
	kinds := []policy.Kind{policy.Local, policy.Random, policy.BNQ, policy.BNQRD, policy.LERT, policy.Work}
	modes := []policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP}
	for _, kind := range kinds {
		base := runDigest(t, imperfectCfg(kind, InfoPerfect))
		for _, mode := range modes {
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				r := runDigest(t, parallelCfg(kind, 0, mode))
				if r.TraceDigest != base.TraceDigest {
					t.Errorf("digest %#x, want monolithic %#x — single-op trees changed the event stream",
						r.TraceDigest, base.TraceDigest)
				}
				if !reflect.DeepEqual(r, base) {
					t.Errorf("results diverged from the monolithic run:\n  trees: %+v\n  mono:  %+v", r, base)
				}
			})
		}
	}
}

// TestParallelDigestDeterminism pins the enabled subsystem's own
// reproducibility: same seed, same digest; different seed, different
// digest; and the heap scheduler replays the calendar's event stream
// bit for bit with trees on.
func TestParallelDigestDeterminism(t *testing.T) {
	for _, mode := range []policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := parallelCfg(policy.LERT, 0.5, mode)
			a := runDigest(t, cfg)
			b := runDigest(t, cfg)
			if a.TraceDigest != b.TraceDigest {
				t.Errorf("same seed digests differ: %#x vs %#x", a.TraceDigest, b.TraceDigest)
			}
			h := runDigestImpl(t, cfg, sim.Heap)
			if h.TraceDigest != a.TraceDigest {
				t.Errorf("heap digest %#x, want calendar %#x", h.TraceDigest, a.TraceDigest)
			}
			other := cfg
			other.Seed = cfg.Seed + 1
			o := runDigest(t, other)
			if o.TraceDigest == a.TraceDigest {
				t.Errorf("different seeds produced the same digest %#x", a.TraceDigest)
			}
		})
	}
}

// TestParallelModesAudited runs each placement mode with trees on under
// the full auditor set and checks the Results surface: plans ran, every
// operator attempt is accounted for, and the per-resource ledger moved.
func TestParallelModesAudited(t *testing.T) {
	for _, mode := range []policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP} {
		t.Run(mode.String(), func(t *testing.T) {
			r := runDigest(t, parallelCfg(policy.LERT, 0.6, mode))
			if r.ParallelQueries == 0 {
				t.Fatal("no multi-operator plans ran")
			}
			if r.OperatorsCompleted == 0 {
				t.Fatal("no operators completed")
			}
			if r.Operators < r.OperatorsCompleted+r.OperatorsAborted+r.OperatorsPreempted {
				t.Errorf("operator ledger overflows: %d spawned < %d completed + %d aborted + %d preempted",
					r.Operators, r.OperatorsCompleted, r.OperatorsAborted, r.OperatorsPreempted)
			}
			if len(r.DOPHist) == 0 {
				t.Error("empty DOP histogram with plans on")
			}
			if r.OpDiskBusy <= 0 || r.OpCPUBusy <= 0 {
				t.Errorf("per-resource busy ledger empty: cpu %v disk %v", r.OpCPUBusy, r.OpDiskBusy)
			}
			if mode != policy.ParallelSingle && r.IntermediateBytes <= 0 {
				t.Errorf("no intermediate bytes shipped in %v mode", mode)
			}
		})
	}
}

// TestParallelDOPSplitsWide checks that DOP mode actually splits: with
// the default cost parameters the bottom join's divisible work dwarfs
// the per-site overhead, so some plans must land on two or more sites
// via the fragment-and-replicate expansion.
func TestParallelDOPSplitsWide(t *testing.T) {
	r := runDigest(t, parallelCfg(policy.LERT, 1, policy.ParallelDOP))
	var wide uint64
	for k := 1; k < len(r.DOPHist); k++ {
		wide += r.DOPHist[k]
	}
	if wide == 0 {
		t.Fatalf("no plan used more than one site: hist %v", r.DOPHist)
	}
}

// TestParallelUnderPlacement runs trees over a partially replicated
// database: scans are confined to fragment holders and the expansion
// shares split among them, all under audit.
func TestParallelUnderPlacement(t *testing.T) {
	for _, mode := range []policy.ParallelMode{policy.ParallelOperator, policy.ParallelDOP} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := parallelCfg(policy.LERT, 0.6, mode)
			p, err := replica.NewRoundRobin(cfg.NumSites, 12, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Placement = p
			r := runDigest(t, cfg)
			if r.ParallelQueries == 0 || r.OperatorsCompleted == 0 {
				t.Fatalf("plans %d, completed operators %d — placement run idle",
					r.ParallelQueries, r.OperatorsCompleted)
			}
		})
	}
}

// TestParallelDeadlineAbortReleasesOnce pins satellite 4's first half:
// a deadline abort of an operator-split query withdraws every per-site
// attempt exactly once. The deadline-conservation auditor enforces
// OpsAborted == OpReleases between every pair of events and the
// operator auditor enforces commits == releases + live, so a double
// release or a leak fails the run; here we additionally require that
// the path actually fired.
func TestParallelDeadlineAbortReleasesOnce(t *testing.T) {
	cfg := parallelCfg(policy.LERT, 1, policy.ParallelOperator)
	cfg.Deadline = DeadlineConfig{Enabled: true, Deadline: 60}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
	if r.DeadlineMisses == 0 {
		t.Fatal("deadline never fired; tighten the budget")
	}
	if sys.par.dlOpsAborted == 0 {
		t.Fatal("no operator attempt was withdrawn by a deadline abort")
	}
	if sys.par.dlOpsAborted != sys.par.dlOpReleases {
		t.Fatalf("%d deadline-aborted operators released %d commitments",
			sys.par.dlOpsAborted, sys.par.dlOpReleases)
	}
	if r.OperatorsAborted == 0 {
		t.Fatal("aborted-operator counter never moved")
	}
}

// TestParallelHedgedOperatorNoDoubleCount pins satellite 4's second
// half: operator hedge clones win and lose without double counting.
// The clones share the query-level hedge ledger, so the auditor's
// launched == wins + cancelled + racing identity holds at every event;
// the operator auditor rules out a loser being released twice.
func TestParallelHedgedOperatorNoDoubleCount(t *testing.T) {
	cfg := parallelCfg(policy.LERT, 0.8, policy.ParallelOperator)
	cfg.Hedge = HedgeConfig{Enabled: true, Quantile: 0.5, MinDelay: 5}
	cfg.Parallel.Hedge = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
	if r.Hedged == 0 {
		t.Fatal("no operator hedge clone launched; loosen the trigger")
	}
	if got := sys.hedge.wins + sys.hedge.cancelled + uint64(sys.hedge.activeClones); sys.hedge.launched != got {
		t.Fatalf("hedge ledger unbalanced: %d launched, %d settled", sys.hedge.launched, got)
	}
	if sys.par.tableLive < 0 {
		t.Fatalf("negative live commitments %d (double release)", sys.par.tableLive)
	}
}

// TestParallelFaultChaos runs trees under site crashes and a lossy ring
// with every auditor armed: carrier losses must collapse their plans
// into clean rejections with no leaked or double-released commitment.
func TestParallelFaultChaos(t *testing.T) {
	for _, mode := range []policy.ParallelMode{policy.ParallelOperator, policy.ParallelDOP} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := parallelCfg(policy.LERT, 0.7, mode)
			cfg.Fault = fault.Config{
				Enabled:       true,
				MTTF:          1200,
				MTTR:          250,
				DropProb:      0.03,
				DetectTimeout: 150,
				RetryBackoff:  10,
				MaxRetries:    6,
			}
			r := runDigest(t, parallelChaosHedge(cfg))
			if r.ParallelQueries == 0 {
				t.Fatal("no plans ran under chaos")
			}
			if r.OperatorsPreempted == 0 && r.QueriesRejected == 0 {
				t.Log("chaos run saw no carrier losses; auditors still passed")
			}
		})
	}
}

// parallelChaosHedge layers operator hedging onto a chaos config so the
// crash/drop paths exercise the race bookkeeping too.
func parallelChaosHedge(cfg Config) Config {
	cfg.Hedge = HedgeConfig{Enabled: true, Quantile: 0.9, MinDelay: 25}
	cfg.Parallel.Hedge = true
	return cfg
}

// TestParallelConfigRejects pins the cross-field validation: operator
// hedging without the hedge subsystem, plans under migration, and a hot
// share that is out of range or has no fragment pair to read are
// configuration errors.
func TestParallelConfigRejects(t *testing.T) {
	cfg := parallelCfg(policy.LERT, 0.5, policy.ParallelOperator)
	cfg.Parallel.Hedge = true
	if _, err := New(cfg); err == nil {
		t.Error("Parallel.Hedge without Hedge.Enabled accepted")
	}
	cfg = parallelCfg(policy.LERT, 0.5, policy.ParallelOperator)
	cfg.Migration = MigrationConfig{Enabled: true, Threshold: 2, CheckEvery: 4, MinRemaining: 5, StateFactor: 1}
	if _, err := New(cfg); err == nil {
		t.Error("parallel plans under migration accepted")
	}
	cfg = parallelCfg(policy.LERT, 0.5, policy.ParallelOperator)
	cfg.Parallel.Mode = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid parallel mode accepted")
	}
	onePlacement, err := replica.NewRoundRobin(6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		hot       float64
		placement *replica.Placement
	}{
		{"NaN", math.NaN(), hotPlacement(t)},
		{"negative", -0.1, hotPlacement(t)},
		{"above one", 1.5, hotPlacement(t)},
		{"no placement", 0.5, nil},
		{"one object", 0.5, onePlacement},
	} {
		cfg = parallelCfg(policy.LERT, 0.5, policy.ParallelOperator)
		cfg.Parallel.HotProb = c.hot
		cfg.Placement = c.placement
		if _, err := New(cfg); err == nil {
			t.Errorf("HotProb %v (%s) accepted", c.hot, c.name)
		}
	}
	cfg = parallelCfg(policy.LERT, 0.5, policy.ParallelOperator)
	cfg.Parallel.HotProb = 1
	cfg.Placement = hotPlacement(t)
	if _, err := New(cfg); err != nil {
		t.Errorf("HotProb 1 on an 8-object placement rejected: %v", err)
	}
}

// hotPlacement is an 8-object, 2-copy round-robin placement over the
// base config's six sites: enough fragments for the hot pair.
func hotPlacement(t testing.TB) *replica.Placement {
	t.Helper()
	pl, err := replica.NewRoundRobin(6, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// FuzzParallelScheduler cross-checks the operator engine under both
// kernel implementations: for arbitrary seeds, join probabilities, hot
// shares, modes, and fault settings, the calendar and heap schedulers
// must produce bit-identical event streams with every auditor passing.
// A nonzero hot share runs on a partial placement, so the skewed
// sampler and fragment-confined scans are cross-checked too.
func FuzzParallelScheduler(f *testing.F) {
	f.Add(uint64(1), uint8(128), uint8(0), uint8(0), false)
	f.Add(uint64(7), uint8(255), uint8(230), uint8(1), true)
	f.Add(uint64(42), uint8(64), uint8(128), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed uint64, joinProb, hot, mode uint8, faultOn bool) {
		modes := []policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP}
		cfg := parallelCfg(policy.LERT, float64(joinProb)/255, modes[int(mode)%len(modes)])
		if hot > 0 {
			cfg.Placement = hotPlacement(t)
			cfg.Parallel.HotProb = float64(hot) / 255
		}
		cfg.Seed = seed
		cfg.Warmup = 200
		cfg.Measure = 1500
		if faultOn {
			cfg.Fault = fault.Config{
				Enabled:       true,
				MTTF:          900,
				MTTR:          200,
				DropProb:      0.02,
				DetectTimeout: 120,
				RetryBackoff:  10,
				MaxRetries:    4,
			}
		}
		a := runDigest(t, cfg)
		b := runDigestImpl(t, cfg, sim.Heap)
		if a.TraceDigest != b.TraceDigest {
			t.Fatalf("scheduler implementations diverged: calendar %#x, heap %#x", a.TraceDigest, b.TraceDigest)
		}
	})
}
