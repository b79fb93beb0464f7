package system

import (
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/workload"
)

// This file pins the query-attempt lifecycle with every extension that
// shapes it switched on. The knobs-off goldens (imperfect_test.go,
// digestequiv_test.go) fix the paper's model; the cases below fix what
// migration, admission, deadlines, hedging, faults, replication and
// operator trees do to a query's commit, ship, lose, withdraw and
// release transitions. Each value was captured once and is never edited:
// a refactor of the lifecycle must reproduce every event and every
// Results field bit for bit.

// lifecycleFaults is a crash-and-drop fault model with watchdog retry.
func lifecycleFaults() fault.Config {
	return fault.Config{
		Enabled:       true,
		MTTF:          1500,
		MTTR:          300,
		DropProb:      0.03,
		DetectTimeout: 150,
		RetryBackoff:  10,
		MaxRetries:    6,
	}
}

// resultsHash is the FNV-64a hash of the JSON encoding of r.
func resultsHash(t *testing.T, r Results) uint64 {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// lifecycleCases builds the pinned configurations. fired names the
// counters that must be non-zero, so a case cannot silently stop
// exercising the path it pins.
func lifecycleCases(t *testing.T) []struct {
	name    string
	cfg     Config
	fired   func(Results) map[string]uint64
	digest  uint64
	results uint64
} {
	migFaultDeadline := imperfectCfg(policy.Local, InfoPerfect)
	migFaultDeadline.Migration = DefaultMigration()
	migFaultDeadline.Fault = lifecycleFaults()
	migFaultDeadline.Deadline = DeadlineConfig{Enabled: true, Deadline: 400}

	migNoise := imperfectCfg(policy.LERT, InfoPeriodic)
	migNoise.Migration = DefaultMigration()
	migNoise.Noise = noise.Default()
	migNoise.Hedge = HedgeConfig{Enabled: true, Quantile: 0.8, MinDelay: 20}

	admission := overloadCfg()
	admission.MPL = 12
	admission.Admission = AdmissionConfig{Enabled: true, MaxQueue: 2, Defer: true, DeferDelay: 60, MaxDefers: 2}
	admission.Deadline = DeadlineConfig{Enabled: true, Deadline: 200}
	admission.Hedge = HedgeConfig{Enabled: true, Quantile: 0.8, MinDelay: 20}

	mmpp := overloadCfg()
	mmpp.Arrival = arrival.Config{Enabled: true, Process: arrival.MMPP, Rate: 0.2, BurstFactor: 4}
	mmpp.Deadline = DeadlineConfig{Enabled: true, Deadline: 250}
	mmpp.Hedge = HedgeConfig{Enabled: true, Quantile: 0.9, MinDelay: 25}
	mmpp.Fault = lifecycleFaults()
	mmpp.Admission = AdmissionConfig{Enabled: true, MaxQueue: 4, Defer: true, DeferDelay: 5, MaxDefers: 3}

	graySlow := slowConfig(policy.LERT, 5)
	graySlow.Fault.MTTF = 1500
	graySlow.Fault.MTTR = 300
	graySlow.Fault.DetectTimeout = 150
	graySlow.Fault.RetryBackoff = 10
	graySlow.Fault.MaxRetries = 6
	graySlow.Suspect = loadinfo.DefaultSuspect()
	graySlow.Hedge = HedgeConfig{Enabled: true, Quantile: 0.8, MinDelay: 20}

	exhaust := faultyConfig(policy.LERT, 3)
	exhaust.Fault.MaxRetries = 0
	exhaust.Fault.DetectTimeout = 60
	exhaust.Hedge = HedgeConfig{Enabled: true, Quantile: 0.5, MinDelay: 10}

	degraded := degradedConfig(t, replica.DegradedFetch)
	degraded.TraceDigest = true
	degraded.Hedge = HedgeConfig{Enabled: true, Quantile: 0.8, MinDelay: 20}
	degraded.Deadline = DeadlineConfig{Enabled: true, Deadline: 300}

	opTrees := parallelCfg(policy.LERT, 0.8, policy.ParallelOperator)
	opTrees.Fault = lifecycleFaults()
	opTrees.Hedge = HedgeConfig{Enabled: true, Quantile: 0.8, MinDelay: 10}
	opTrees.Parallel.Hedge = true
	opTrees.Deadline = DeadlineConfig{Enabled: true, Deadline: 200}

	dopTrees := parallelCfg(policy.LERT, 0.8, policy.ParallelDOP)
	placement, err := replica.NewRoundRobin(dopTrees.NumSites, 10*dopTrees.NumSites, 2)
	if err != nil {
		t.Fatal(err)
	}
	dopTrees.Placement = placement
	dopTrees.Replication = replica.DefaultManager()
	dopTrees.Fault = lifecycleFaults()
	dopTrees.Hedge = HedgeConfig{Enabled: true, Quantile: 0.8, MinDelay: 10}
	dopTrees.Parallel.Hedge = true
	dopTrees.Deadline = DeadlineConfig{Enabled: true, Deadline: 400}

	return []struct {
		name    string
		cfg     Config
		fired   func(Results) map[string]uint64
		digest  uint64
		results uint64
	}{
		{"migration/faults/deadline/LOCAL", migFaultDeadline, func(r Results) map[string]uint64 {
			return map[string]uint64{"Migrations": r.Migrations, "QueriesLost": r.QueriesLost, "QueriesAborted": r.QueriesAborted}
		}, 0x6eb8192846ceace4, 0x4e5d1566de64c07b},
		{"migration/noise/periodic", migNoise, func(r Results) map[string]uint64 {
			return map[string]uint64{"Migrations": r.Migrations}
		}, 0x80bcb633d11ba039, 0x34333bde31503c09},
		{"admission/deadline/hedge", admission, func(r Results) map[string]uint64 {
			return map[string]uint64{"QueriesDeferred": r.QueriesDeferred, "QueriesShed": r.QueriesShed, "Hedged": r.Hedged, "QueriesAborted": r.QueriesAborted}
		}, 0xfb8f684111c57382, 0xc3d76262156f5853},
		{"mmpp/deadline/hedge/faults/admission", mmpp, func(r Results) map[string]uint64 {
			return map[string]uint64{"QueriesDeferred": r.QueriesDeferred, "Hedged": r.Hedged, "QueriesAborted": r.QueriesAborted, "QueriesLost": r.QueriesLost}
		}, 0x5c5dbd0303f5b59b, 0x520d81919a855eba},
		{"hedge/crash/failslow/suspicion", graySlow, func(r Results) map[string]uint64 {
			return map[string]uint64{"Hedged": r.Hedged, "HedgeWins": r.HedgeWins, "QueriesLost": r.QueriesLost, "SlowEpisodes": r.SlowEpisodes}
		}, 0x9a666c2739492fb5, 0xc124cc53ac321128},
		{"faults/retry-exhaustion/hedge", exhaust, func(r Results) map[string]uint64 {
			return map[string]uint64{"QueriesRejected": r.QueriesRejected, "Hedged": r.Hedged, "HedgeWins": r.HedgeWins, "QueriesLost": r.QueriesLost}
		}, 0x8c0017a260defa5c, 0xb379e3f287bd94ae},
		{"selfheal/degraded-fetch/hedge/deadline", degraded, func(r Results) map[string]uint64 {
			return map[string]uint64{"DegradedReads": r.DegradedReads, "Hedged": r.Hedged, "QueriesLost": r.QueriesLost}
		}, 0x6855efec1405b1b4, 0xd941c70682cbe14b},
		{"operator/op-hedge/faults/deadline", opTrees, func(r Results) map[string]uint64 {
			return map[string]uint64{"Hedged": r.Hedged, "OperatorsPreempted": r.OperatorsPreempted, "OperatorsAborted": r.OperatorsAborted, "QueriesAborted": r.QueriesAborted}
		}, 0x7da38ee2e933b79f, 0xa6c9e4ba925f9fe7},
		{"dop/placement/replicas/faults/hedge/deadline", dopTrees, func(r Results) map[string]uint64 {
			return map[string]uint64{"Hedged": r.Hedged, "OperatorsPreempted": r.OperatorsPreempted, "QueriesAborted": r.QueriesAborted, "ReplicasRebuilt": r.ReplicasRebuilt}
		}, 0x387df630dd607b15, 0xd7a5be4394410c93},
	}
}

// TestLifecycleGoldenDigests runs every lifecycle case audited and
// asserts its trace digest and Results hash against the pinned values.
func TestLifecycleGoldenDigests(t *testing.T) {
	for _, c := range lifecycleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r := runDigest(t, c.cfg)
			for name, v := range c.fired(r) {
				if v == 0 {
					t.Errorf("%s is 0: the case no longer exercises its path", name)
				}
			}
			got := resultsHash(t, r)
			if r.TraceDigest != c.digest || got != c.results {
				t.Errorf("digest %#x results %#x, want %#x %#x", r.TraceDigest, got, c.digest, c.results)
			}
		})
	}
}

// TestLeakedCommitmentTripsConservation plants the defect the single
// release point exists to prevent: one load-table commitment that no
// release ever undoes. The conservation auditor must report it.
func TestLeakedCommitmentTripsConservation(t *testing.T) {
	cfg := Default()
	cfg.Seed = 1
	cfg.Warmup = 300
	cfg.Measure = 2000
	cfg.Audit = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.sched.At(500, func() { sys.table.Assign(0, workload.IOBound) })
	sys.Run()
	err = sys.Audit()
	if err == nil || !strings.Contains(err.Error(), "conservation: t=") {
		t.Fatalf("leaked commitment not reported by the conservation auditor: %v", err)
	}
	t.Log(err)
}
