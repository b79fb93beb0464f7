package system

import (
	"math"

	"dqalloc/internal/check"
	"dqalloc/internal/fault"
	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// This file wires the fault-injection subsystem (internal/fault) into
// the system model: site crashes drain the execution engine, lossy
// transmissions lose shipped queries and result pages, and a per-query
// watchdog detects losses and re-allocates among the remaining live
// sites. Terminals are assumed to survive their site's crash (only the
// DB execution engine fails), so the closed population is preserved:
// every submitted query eventually completes or is explicitly rejected.
//
// Everything here is gated on s.faults != nil; a run with
// Config.Fault.Enabled == false schedules no extra events, draws no
// extra random numbers, and is bit-identical to a build without the
// subsystem.

// Scheduler event kinds for the fault layer (see sim.Event.Kind).
const (
	// eventKindTimeout tags watchdog expirations.
	eventKindTimeout byte = 0x43
	// eventKindRetry tags the end of a lost query's retry backoff.
	eventKindRetry byte = 0x44
)

// faultRuntime is the per-run state of the fault subsystem.
type faultRuntime struct {
	cfg fault.Config
	inj *fault.Injector

	// netStream and bcStream drive the ring and load-broadcast fault
	// models; they are dedicated children of the root stream so the
	// no-fault streams are never perturbed.
	netStream *rng.Stream
	bcStream  *rng.Stream

	// pending tracks every dispatched, uncompleted query's watchdog.
	pending map[*workload.Query]*faultPending

	lost            uint64
	retried         uint64
	abandoned       uint64
	preempted       uint64 // losses resolved by a hedge win or deadline abort
	pendingRecovery int
}

// faultPending is one query's recovery state.
type faultPending struct {
	// timer is the armed watchdog (or, for a lost query, its pending
	// retry event).
	timer sim.Handle
	// attempt counts re-allocation attempts consumed so far.
	attempt int
	// lost marks that the query's execution was wiped out and it awaits
	// its watchdog.
	lost bool
}

// totals implements the closure read by check.NewFaultConservation.
func (fr *faultRuntime) totals() check.FaultTotals {
	return check.FaultTotals{
		Lost:            fr.lost,
		Retried:         fr.retried,
		Abandoned:       fr.abandoned,
		Preempted:       fr.preempted,
		PendingRecovery: fr.pendingRecovery,
	}
}

// setupFaults builds the fault runtime during New. root is the run's
// root stream; children 4–6 are reserved for the fault layer.
func (s *System) setupFaults(root *rng.Stream) error {
	fr := &faultRuntime{
		cfg:     s.cfg.Fault,
		pending: make(map[*workload.Query]*faultPending),
	}
	inj, err := fault.NewInjector(s.sched, s.cfg.NumSites, s.cfg.Fault, root.Child(4), s.onSiteCrash, s.onSiteRepair)
	if err != nil {
		return err
	}
	fr.inj = inj
	// Policies consult the injector's live mask; it is updated in place
	// at crash and repair instants.
	s.env.Up = inj.Up()
	if s.cfg.Fault.NetworkFaults() {
		fr.netStream = root.Child(5)
		s.ring.SetFault(func() (bool, float64) { return fr.messageFate(fr.netStream) })
		if s.bcast != nil {
			fr.bcStream = root.Child(6)
			s.bcast.SetPerturb(func(int) (bool, float64) { return fr.messageFate(fr.bcStream) })
		}
	}
	s.faults = fr
	return nil
}

// messageFate draws one message's fate from the given stream: drop
// and/or extra latency. Both draws always happen (when their knob is
// on), so the stream's consumption depends only on the message count —
// the common-random-numbers discipline.
func (fr *faultRuntime) messageFate(stream *rng.Stream) (drop bool, delay float64) {
	if fr.cfg.DropProb > 0 {
		drop = stream.Bernoulli(fr.cfg.DropProb)
	}
	if fr.cfg.DelayMean > 0 {
		delay = stream.Exp(fr.cfg.DelayMean)
	}
	return drop, delay
}

// up reports site liveness; always true when faults are off.
func (s *System) up(site int) bool {
	return s.faults == nil || s.faults.inj.SiteUp(site)
}

// onSiteCrash is the injector's crash callback: the site's execution
// engine drops everything mid-service, and each drained attempt is lost.
func (s *System) onSiteCrash(site int) {
	for _, q := range s.sites[site].Crash() {
		// A carrier withdrawn by a sibling's plan collapse earlier in this
		// loop is already phaseDone, and lose skips it.
		s.lose(q)
	}
	if s.repl != nil {
		// The crash wipes the site's fragment copies (except last copies,
		// which survive on stable storage) and aborts shipments it was
		// donating or receiving; newly uncovered deficits get rebuild
		// timers.
		s.replScheduleDeficits(s.repl.mgr.OnCrash(site, s.sched.Now()))
	}
	if s.avail != nil {
		s.availRecountAll()
	}
}

// onSiteRepair is the injector's repair callback: fragments whose
// surviving copies live at the repaired site become reachable again.
func (s *System) onSiteRepair(int) {
	if s.avail != nil {
		s.availRecountAll()
	}
}

// faultArm starts a newly dispatched query's watchdog.
func (s *System) faultArm(q *workload.Query) {
	if s.faults == nil {
		return
	}
	e := &faultPending{}
	s.faults.pending[q] = e
	s.armWatchdog(q, e)
}

// armWatchdog (re)schedules the detection timer.
func (s *System) armWatchdog(q *workload.Query, e *faultPending) {
	e.timer = s.sched.After(s.faults.cfg.DetectTimeout, func() { s.faultTimeout(q) })
	e.timer.SetKind(eventKindTimeout)
}

// faultLost records that a primary query's execution was wiped out
// (see lose). The query stays in the in-flight population; its armed
// watchdog will notice the loss and retry or reject it.
func (s *System) faultLost(q *workload.Query) {
	e := s.faults.pending[q]
	if e == nil || e.lost {
		return // already accounted; nothing further can be lost
	}
	e.lost = true
	q.Phase = phaseLost
	s.faults.lost++
	s.faults.pendingRecovery++
	if s.aud != nil {
		s.aud.Lost(s.sched.Now())
	}
}

// faultTimeout fires when a query's watchdog expires. A query that is
// merely slow re-arms the watchdog (execution is at-most-once: the
// original dispatch is never duplicated while it may still be alive); a
// lost query consumes a retry attempt.
func (s *System) faultTimeout(q *workload.Query) {
	e := s.faults.pending[q]
	if e == nil {
		return
	}
	if !e.lost {
		s.armWatchdog(q, e)
		return
	}
	s.faultRetryOrAbandon(q, e)
}

// faultRetryOrAbandon consumes one retry attempt for a lost query:
// either its backoff timer is scheduled or its budget is exhausted and
// the query is rejected.
func (s *System) faultRetryOrAbandon(q *workload.Query, e *faultPending) {
	e.attempt++
	if e.attempt > s.faults.cfg.MaxRetries {
		s.faults.pendingRecovery--
		delete(s.faults.pending, q)
		if s.hedge != nil {
			if r := s.hedge.races[q]; r != nil && r.clone != nil {
				// The retry budget ran out but a hedge clone is still
				// racing: let the clone carry the query instead of
				// rejecting it. The loss counts as preempted, and the
				// primary's phaseDone tells the race it is dead.
				q.Phase = phaseDone
				s.faults.preempted++
				return
			}
		}
		s.faults.abandoned++
		s.rejectQuery(q)
		return
	}
	backoff := s.faults.cfg.RetryBackoff * math.Pow(2, float64(e.attempt-1))
	e.timer = s.sched.After(backoff, func() { s.faultRedispatch(q) })
	e.timer.SetKind(eventKindRetry)
}

// faultRedispatch re-allocates a lost query after its backoff: the
// policy runs again over the currently live sites and the query
// restarts from its first read (lost work is genuinely lost). When no
// site can take it, another attempt is consumed.
func (s *System) faultRedispatch(q *workload.Query) {
	e := s.faults.pending[q]
	if e == nil || !e.lost {
		return
	}
	exec := s.selectSite(q)
	if exec == policy.NoSite {
		s.faultRetryOrAbandon(q, e)
		return
	}
	s.faults.pendingRecovery--
	s.faults.retried++
	e.lost = false
	q.ReadsDone = 0
	if s.aud != nil {
		s.aud.Retried(s.sched.Now())
	}
	s.commit(q, exec)
	s.start(q, true)
	s.hedgeQuery(q)
	s.armWatchdog(q, e)
}

// faultRetire retires q's watchdog when q completes or is withdrawn. A
// recovery it cuts short (q was lost, and its race partner won or its
// deadline expired) counts as preempted.
func (s *System) faultRetire(q *workload.Query) {
	if s.faults == nil {
		return
	}
	e := s.faults.pending[q]
	if e == nil {
		return
	}
	if e.lost {
		s.faults.pendingRecovery--
		s.faults.preempted++
	}
	s.sched.Cancel(e.timer)
	delete(s.faults.pending, q)
}

// rejectQuery gives up on a query: it never completes, the rejection is
// counted, its deadline watchdog and any unfired hedge race are retired,
// and — in closed mode, the terminal surviving regardless — its terminal
// returns to the think state, preserving the closed population.
func (s *System) rejectQuery(q *workload.Query) {
	s.deadlineRetire(q, false)
	// Every rejection path reaches here with no live clone (a racing
	// clone preempts abandonment), so only an idle race can remain.
	s.endRace(q)
	q.Phase = phaseDone
	s.rejected++
	if s.aud != nil {
		s.aud.Rejected(s.sched.Now())
	}
	if s.arr == nil {
		s.startThink(q.Home)
	}
}
