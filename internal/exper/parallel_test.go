package exper

import (
	"testing"

	"dqalloc/internal/policy"
)

// TestParallelQuerySweep is the acceptance experiment of the
// parallel-query extension: on the disk-bound large-join workload,
// spreading plans across sites (operator or dop mode) must beat
// anchoring every plan at one site (single mode) on mean response, with
// every replication audited. It also pins the bookkeeping each row
// reports.
func TestParallelQuerySweep(t *testing.T) {
	r := Quick()
	rows, err := ParallelQuerySweep(r, []policy.Kind{policy.LERT},
		[]policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	byMode := map[string]ParallelQueryRow{}
	for _, row := range rows {
		byMode[row.Mode] = row
		if row.ParallelQueries == 0 || row.Operators == 0 || row.Completed == 0 {
			t.Fatalf("idle cell: %+v", row)
		}
		if row.MeanResponse <= 0 {
			t.Fatalf("non-positive mean response: %+v", row)
		}
	}
	single := byMode["single"]
	if single.WideFrac != 0 {
		t.Errorf("single mode split %v of its plans across sites", single.WideFrac)
	}
	if byMode["dop"].WideFrac == 0 {
		t.Error("dop mode never split a plan across sites")
	}
	if byMode["operator"].IntermediateBytes == 0 {
		t.Error("operator mode shipped no intermediate results")
	}
	best := byMode["operator"].MeanResponse
	if dop := byMode["dop"].MeanResponse; dop < best {
		best = dop
	}
	if best >= single.MeanResponse {
		t.Errorf("no split mode beat single-site placement: single %.2f, operator %.2f, dop %.2f",
			single.MeanResponse, byMode["operator"].MeanResponse, byMode["dop"].MeanResponse)
	}
}

func TestParallelQuerySweepErrors(t *testing.T) {
	if _, err := ParallelQuerySweep(Runner{}, []policy.Kind{policy.LERT},
		[]policy.ParallelMode{policy.ParallelSingle}); err == nil {
		t.Error("invalid runner accepted")
	}
	if _, err := ParallelQuerySweep(Quick(), []policy.Kind{policy.LERT}, nil); err == nil {
		t.Error("empty mode list accepted")
	}
	if _, err := JoinHotSpotSweep(Runner{}, []float64{0}); err == nil {
		t.Error("hot-spot sweep accepted an invalid runner")
	}
	if _, err := JoinHotSpotSweep(Quick(), nil); err == nil {
		t.Error("hot-spot sweep accepted an empty hot-share list")
	}
	if _, err := JoinHotSpotSweep(Quick(), []float64{1.5}); err == nil {
		t.Error("hot-spot sweep accepted a hot share above one")
	}
}

// TestJoinHotSpotSweep is the distributed-join convoy experiment of the
// paper's Section 1.1 on the plan engine, every run audited. When most
// queries join the same fragment pair, the load-blind static plan
// convoys on the pair's nearest copies, random placement spreads the
// load blindly, and dynamic placement keeps response nearly flat; on a
// uniform workload dynamic placement still beats random.
func TestJoinHotSpotSweep(t *testing.T) {
	r := Runner{Reps: 3, BaseSeed: 1, Warmup: 2000, Measure: 20000}
	rows, err := JoinHotSpotSweep(r, []float64{0, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	resp := map[float64]map[string]float64{}
	for _, row := range rows {
		if row.Completed == 0 || row.ParallelQueries == 0 || row.MeanResponse <= 0 {
			t.Fatalf("idle cell: %+v", row)
		}
		if resp[row.HotProb] == nil {
			resp[row.HotProb] = map[string]float64{}
		}
		resp[row.HotProb][row.Policy+"/"+row.Mode] = row.MeanResponse
		t.Logf("hot %.0f%% %s/%s: mean response %.1f", 100*row.HotProb, row.Policy, row.Mode, row.MeanResponse)
	}
	const static, random, dynamic = "LOCAL/single", "RANDOM/operator", "LERT/operator"
	t.Run("DynamicBeatsStaticOnHotSpot", func(t *testing.T) {
		if s, d := resp[0.9][static], resp[0.9][dynamic]; s < 1.8*d {
			t.Errorf("at 90%% hot, static response %.1f is not 1.8x dynamic %.1f", s, d)
		}
		if hot, cold := resp[0.9][dynamic], resp[0][dynamic]; hot > 1.3*cold {
			t.Errorf("dynamic response grew from %.1f to %.1f (over 1.3x) at 90%% hot", cold, hot)
		}
		for _, hot := range []float64{0.5, 0.9} {
			c := resp[hot]
			if !(c[dynamic] < c[random] && c[random] < c[static]) {
				t.Errorf("at %.0f%% hot, random %.1f not strictly between dynamic %.1f and static %.1f",
					100*hot, c[random], c[dynamic], c[static])
			}
		}
	})
	t.Run("DynamicBeatsRandomOnUniform", func(t *testing.T) {
		if d, rnd := resp[0][dynamic], resp[0][random]; d >= rnd {
			t.Errorf("on the uniform workload, dynamic response %.1f not below random %.1f", d, rnd)
		}
	})
}

// TestParallelWorkloadConfigValid keeps the study's workload admissible
// on its own — the sweep depends on it building directly.
func TestParallelWorkloadConfigValid(t *testing.T) {
	cfg := ParallelWorkloadConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Parallel.Enabled || cfg.Parallel.JoinProb != 1 {
		t.Fatalf("workload not all-join: %+v", cfg.Parallel)
	}
}
