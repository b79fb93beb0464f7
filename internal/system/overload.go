package system

import (
	"fmt"
	"math"

	"dqalloc/internal/arrival"
	"dqalloc/internal/check"
	"dqalloc/internal/rng"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// This file is the overload & tail-robustness extension: open (possibly
// bursty) arrivals replacing the closed terminals, per-query deadlines
// that abort a query wherever it currently is, and hedged execution that
// races a straggling remote query against a clone at the next-best site.
//
// Everything here is gated on s.arr / s.dl / s.hedge being non-nil; a run
// with all three knobs disabled schedules no extra events, draws no extra
// random numbers, and is bit-identical to a build without the subsystem.

// Scheduler event kinds for the overload layer (see sim.Event.Kind).
const (
	// eventKindDeadline tags deadline watchdog expirations.
	eventKindDeadline byte = 0x46
	// eventKindHedge tags hedge launch timers.
	eventKindHedge byte = 0x47
)

// Response-time histogram shape: log-spaced buckets covering [histLo,
// histHi) with ≤ histRelErr relative quantile error (internal/stats).
const (
	histLo     = 0.001
	histHi     = 1e7
	histRelErr = 0.02
)

// hedgeMinSamples is the measured-completion count a class must reach
// before its histogram quantile drives the hedge delay; below it (and
// throughout warmup) the configured MinDelay applies.
const hedgeMinSamples = 32

// DeadlineConfig parameterizes per-query deadlines. The zero value
// (Enabled == false) disables them.
type DeadlineConfig struct {
	// Enabled turns deadlines on.
	Enabled bool
	// Deadline is each query's response-time budget, relative to its
	// submission instant. A query not completed when it expires is
	// aborted wherever it is — queued, in service, or in transit — with
	// its load-table commitment released.
	Deadline float64
}

// DefaultDeadline returns a moderate deadline: 400 time units, a few
// multiples of the baseline mean response time.
func DefaultDeadline() DeadlineConfig {
	return DeadlineConfig{Enabled: true, Deadline: 400}
}

// validate reports the first deadline-config error, if any.
func (d DeadlineConfig) validate() error {
	if !d.Enabled {
		return nil
	}
	if math.IsNaN(d.Deadline) || math.IsInf(d.Deadline, 0) || d.Deadline <= 0 {
		return fmt.Errorf("system: deadline %v must be positive and finite", d.Deadline)
	}
	return nil
}

// HedgeConfig parameterizes hedged execution. The zero value
// (Enabled == false) disables it.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Quantile selects the hedge trigger: a remote query still unfinished
	// after its class's Quantile response time is raced against a clone
	// at the next-best up site. Must lie in (0, 1).
	Quantile float64
	// MinDelay floors the hedge delay; it also applies whenever the
	// class's histogram has too few samples to estimate the quantile
	// (fewer than 32 measured completions, e.g. during warmup).
	MinDelay float64
}

// DefaultHedge returns the classic tail-hedging setting: re-issue at the
// p95 response time, never sooner than 50 time units.
func DefaultHedge() HedgeConfig {
	return HedgeConfig{Enabled: true, Quantile: 0.95, MinDelay: 50}
}

// validate reports the first hedge-config error, if any.
func (h HedgeConfig) validate() error {
	if !h.Enabled {
		return nil
	}
	switch {
	case math.IsNaN(h.Quantile) || h.Quantile <= 0 || h.Quantile >= 1:
		return fmt.Errorf("system: hedge quantile %v outside (0,1)", h.Quantile)
	case math.IsNaN(h.MinDelay) || math.IsInf(h.MinDelay, 0) || h.MinDelay <= 0:
		return fmt.Errorf("system: hedge MinDelay %v must be positive and finite", h.MinDelay)
	}
	return nil
}

// arrivalRuntime is the per-run state of the open-arrival subsystem: one
// source per query class with positive arrival rate.
type arrivalRuntime struct {
	cfg     arrival.Config
	sources []*arrival.Source
}

// deadlineRuntime is the per-run state of the deadline subsystem.
type deadlineRuntime struct {
	cfg DeadlineConfig
	// timers maps every query with an armed deadline to its watchdog.
	timers map[*workload.Query]sim.Handle

	armed     uint64
	met       uint64
	missed    uint64
	cancelled uint64
}

// hedgeRuntime is the per-run state of the hedging subsystem.
type hedgeRuntime struct {
	cfg HedgeConfig
	// races maps a hedged primary to its race; byClone indexes the same
	// races by the clone once one is launched.
	races   map[*workload.Query]*hedgeRace
	byClone map[*workload.Query]*hedgeRace

	launched     uint64
	wins         uint64
	cancelled    uint64
	activeClones int
}

// setupArrivals builds the open-arrival runtime during New. astream must
// be the root's dedicated arrival child (Child 10); each class with a
// positive share of the offered load gets its own source and sub-stream.
func (s *System) setupArrivals(astream *rng.Stream) error {
	ar := &arrivalRuntime{cfg: s.cfg.Arrival}
	for c := range s.cfg.Classes {
		rate := s.cfg.Arrival.Rate * s.cfg.ClassProbs[c]
		if rate <= 0 {
			continue
		}
		class := c
		src, err := arrival.NewSource(s.sched, s.cfg.Arrival, rate, s.cfg.NumSites,
			astream.Child(uint64(c+1)),
			func(home int) { s.enter(s.gen.NewOfClass(class, home, s.sched.Now())) })
		if err != nil {
			return err
		}
		ar.sources = append(ar.sources, src)
	}
	s.arr = ar
	return nil
}

// openArrivals sums the lifetime arrival counts across sources (zero in
// closed mode).
func (s *System) openArrivals() uint64 {
	if s.arr == nil {
		return 0
	}
	var n uint64
	for _, src := range s.arr.sources {
		n += src.Arrivals()
	}
	return n
}

// overloadTotals implements the closure read by
// check.NewDeadlineConservation, merging the deadline and hedge ledgers
// (either subsystem may be disabled).
func (s *System) overloadTotals() check.DeadlineTotals {
	var t check.DeadlineTotals
	if s.dl != nil {
		t.Armed, t.Met, t.Missed, t.Cancelled = s.dl.armed, s.dl.met, s.dl.missed, s.dl.cancelled
		t.Pending = len(s.dl.timers)
	}
	if s.hedge != nil {
		t.HedgesLaunched, t.HedgeWins, t.HedgeCancelled = s.hedge.launched, s.hedge.wins, s.hedge.cancelled
		t.HedgePending = s.hedge.activeClones
	}
	if s.par != nil {
		t.OpsAborted, t.OpReleases = s.par.dlOpsAborted, s.par.dlOpReleases
	}
	return t
}

// audRetire reports to the auditors that one population member left
// without completing or being counted in Results.QueriesRejected — a
// cancelled hedge clone, a primary whose clone won, or a retired
// operator carrier.
func (s *System) audRetire(now float64) {
	if s.aud != nil {
		s.aud.Rejected(now)
	}
}

// deadlineArm starts a query's deadline watchdog at its first allocation
// attempt; deferrals and retries keep the original watchdog.
func (s *System) deadlineArm(q *workload.Query) {
	if s.dl == nil {
		return
	}
	if _, ok := s.dl.timers[q]; ok {
		return
	}
	remaining := q.SubmitTime + s.dl.cfg.Deadline - s.sched.Now()
	if remaining < 0 {
		remaining = 0
	}
	ev := s.sched.After(remaining, func() { s.deadlineExpire(q) })
	ev.SetKind(eventKindDeadline)
	s.dl.timers[q] = ev
	s.dl.armed++
}

// deadlineRetire retires q's deadline watchdog, counting it met (q
// completed in time) or cancelled (q left through a rejection path).
func (s *System) deadlineRetire(q *workload.Query, met bool) {
	if s.dl == nil {
		return
	}
	ev, ok := s.dl.timers[q]
	if !ok {
		return
	}
	s.sched.Cancel(ev)
	delete(s.dl.timers, q)
	if met {
		s.dl.met++
	} else {
		s.dl.cancelled++
	}
}

// deadlineExpire aborts a query whose deadline passed: any racing hedge
// clone and the attempt itself (or, for an operator-split query, every
// carrier) are withdrawn, and the query counts as missed, aborted, and
// rejected.
func (s *System) deadlineExpire(q *workload.Query) {
	if _, ok := s.dl.timers[q]; !ok {
		return
	}
	delete(s.dl.timers, q)
	s.dl.missed++
	s.aborted++
	s.endRace(q)
	if s.par != nil && s.par.plans[q] != nil {
		s.parWithdraw(s.par.plans[q], true)
	} else {
		s.withdraw(q)
	}
	s.rejectQuery(q)
}

// hedgeQuery starts the race of a newly dispatched remote query. Local
// executions are normally not hedged (there is no straggling network
// leg to race) — unless the gray-failure detector suspects the home
// site, in which case a stuck local query is exactly the straggler
// hedging exists for. A query re-dispatched by the fault layer keeps
// its original race.
func (s *System) hedgeQuery(q *workload.Query) {
	if s.hedge == nil {
		return
	}
	if q.Exec == q.Home && !s.suspected(q.Exec) {
		return
	}
	if _, ok := s.hedge.races[q]; ok {
		return
	}
	r := &hedgeRace{primary: q}
	s.hedgeArm(r)
	s.hedge.races[q] = r
}

// hedgeDelay returns the class's current hedge trigger: its measured
// response-time quantile once enough samples exist, floored by MinDelay.
func (s *System) hedgeDelay(class int) float64 {
	h := s.respHists[class]
	if h.Count() >= hedgeMinSamples {
		if d := h.Quantile(s.hedge.cfg.Quantile); d > s.hedge.cfg.MinDelay {
			return d
		}
	}
	return s.hedge.cfg.MinDelay
}

// endRace ends q's race when q finishes first or leaves the system
// (deadline abort, rejection): a racing clone is withdrawn.
func (s *System) endRace(q *workload.Query) {
	if s.hedge == nil {
		return
	}
	r := s.hedge.races[q]
	if r == nil {
		return
	}
	delete(s.hedge.races, q)
	if r.clone != nil {
		delete(s.hedge.byClone, r.clone)
	}
	if c := s.settle(r, q); c != nil {
		s.withdraw(c)
		s.audRetire(s.sched.Now())
	}
}

// hedgeResolve settles a race at completion time: whichever of primary
// and clone finished first wins, the loser's attempt is withdrawn, and
// the primary — the logical query whose watchdog, deadline, and terminal
// the rest of complete() must retire — is returned. Queries with no race
// pass through untouched.
func (s *System) hedgeResolve(q *workload.Query) *workload.Query {
	r := s.hedge.byClone[q]
	if r == nil {
		// The primary won (or finished unraced).
		s.endRace(q)
		return q
	}
	// The clone won the race.
	p := r.primary
	if s.slow != nil && p.Phase != phaseDone && s.slow.inj.Slowed(p.Exec) {
		// The loser was stuck at a site mid-fail-slow-episode: this
		// hedge demonstrably beat a gray failure.
		s.slow.hedgeWinsVsSlow++
	}
	delete(s.hedge.byClone, q)
	delete(s.hedge.races, p)
	if loser := s.settle(r, q); loser.Phase != phaseDone {
		s.withdraw(loser)
	}
	// The primary leaves the population; the clone is the completion.
	s.audRetire(s.sched.Now())
	return p
}
