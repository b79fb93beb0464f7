package system

import (
	"testing"

	"dqalloc/internal/fault"
	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/sim"
)

// This file is the digest-equivalence gate for kernel optimizations: the
// event-pooling pass (free lists, preallocated payloads, worker reuse)
// must change nothing but speed. Every digest here was captured on the
// pre-pooling tree; a run on the optimized kernel must reproduce each
// one bit for bit. Unlike the knobs-disabled identity tests, the two
// extra configs below exercise the fault and noise layers *enabled*, so
// the pooled cancel/reuse paths (watchdogs, retries, drops, delayed
// broadcasts) are covered too, not just the happy path.

// faultOnConfig enables site crashes, a lossy ring, and perturbed load
// broadcasts on top of the shared short-horizon base — the heaviest
// consumer of event cancellation and reuse.
func faultOnConfig() Config {
	cfg := imperfectCfg(policy.LERT, InfoPeriodic)
	cfg.Fault = fault.Config{
		Enabled:       true,
		MTTF:          1500,
		MTTR:          300,
		DropProb:      0.05,
		DetectTimeout: 150,
		RetryBackoff:  10,
		MaxRetries:    8,
	}
	return cfg
}

// noiseOnConfig enables lognormal estimation error, which diverts the
// cost-based allocator and therefore shifts the whole event stream.
func noiseOnConfig() Config {
	cfg := imperfectCfg(policy.LERT, InfoPerfect)
	cfg.Noise = noise.Default()
	return cfg
}

// TestDigestEquivalencePooledKernel runs the 12 recorded golden digest
// configurations plus one fault-on and one noise-on configuration and
// asserts bit-identity with the digests checked in before the pooling
// optimization. Audit stays on for every run, so the equivalence proof
// also holds under the runtime invariant auditors.
func TestDigestEquivalencePooledKernel(t *testing.T) {
	for _, g := range goldenDigests {
		t.Run("golden/"+g.mode.String()+"/"+g.kind.String(), func(t *testing.T) {
			r := runDigest(t, imperfectCfg(g.kind, g.mode))
			if r.TraceDigest != g.want {
				t.Errorf("digest %#x, want pre-pooling golden %#x — the optimization changed the event stream",
					r.TraceDigest, g.want)
			}
		})
	}
	extra := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"fault-on/LERT/periodic", faultOnConfig(), 0xb9301bf99abd3f78},
		{"noise-on/LERT/perfect", noiseOnConfig(), 0x43c038fbbd5ab1a8},
	}
	for _, g := range extra {
		t.Run(g.name, func(t *testing.T) {
			r := runDigest(t, g.cfg)
			if r.TraceDigest != g.want {
				t.Errorf("digest %#x, want pre-pooling golden %#x — the optimization changed the event stream",
					r.TraceDigest, g.want)
			}
		})
	}
}

// TestDigestEquivalenceSchedulerImpls is the same gate for the
// calendar-queue scheduler: both kernel implementations must reproduce
// every golden digest bit for bit. The calendar queue is the default, so
// TestDigestEquivalencePooledKernel already covers it on the full
// golden table; here the reference heap replays that table, and the
// fault-on and noise-on configurations — the heaviest consumers of
// event cancellation and record reuse, where a routing or free-list
// divergence would surface first — run under both implementations
// explicitly. A mismatch means a scheduler implementation reordered or
// dropped events, which the calendar's design forbids by construction
// (see DESIGN.md §12).
func TestDigestEquivalenceSchedulerImpls(t *testing.T) {
	for _, g := range goldenDigests {
		t.Run("golden/heap/"+g.mode.String()+"/"+g.kind.String(), func(t *testing.T) {
			r := runDigestImpl(t, imperfectCfg(g.kind, g.mode), sim.Heap)
			if r.TraceDigest != g.want {
				t.Errorf("heap digest %#x, want golden %#x — the scheduler changed the event stream",
					r.TraceDigest, g.want)
			}
		})
	}
	heavy := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"fault-on/LERT/periodic", faultOnConfig(), 0xb9301bf99abd3f78},
		{"noise-on/LERT/perfect", noiseOnConfig(), 0x43c038fbbd5ab1a8},
	}
	for _, g := range heavy {
		for _, impl := range []sim.Impl{sim.Calendar, sim.Heap} {
			t.Run(g.name+"/"+impl.String(), func(t *testing.T) {
				r := runDigestImpl(t, g.cfg, impl)
				if r.TraceDigest != g.want {
					t.Errorf("%v digest %#x, want golden %#x — the scheduler changed the event stream",
						impl, r.TraceDigest, g.want)
				}
			})
		}
	}
}
