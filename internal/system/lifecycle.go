package system

import (
	"dqalloc/internal/network"
	"dqalloc/internal/policy"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// This file is the query-attempt lifecycle (DESIGN.md "Query attempt
// lifecycle"). An attempt is anything that occupies a site: a monolithic
// query, a hedge clone, a migrating query, an operator carrier or a
// carrier's clone. Every attempt moves through the same transitions:
//
//   - commit books it at a site and release un-books it; they are the
//     only code touching the load table and the replica commitment
//     ledger, so each commitment is released exactly once;
//   - ship puts it (or its result) on the ring, and land starts it at
//     its site;
//   - lose settles it when a fault wipes it out;
//   - withdraw pulls it back from wherever it is, for deadline aborts,
//     hedge losers and plan collapse.
//
// A withdrawn or finished attempt is phaseDone, and a delivery,
// resubmission or result that finds its attempt phaseDone is dropped.

// Query lifecycle phases, stored in workload.Query.Phase. The zero value
// phaseNone means "not yet dispatched".
const (
	phaseNone int8 = iota
	// phaseDeferred: parked by admission control, awaiting resubmission.
	phaseDeferred
	// phaseCommitted: dispatched and counted in the load table — in
	// transit toward, queued at, or in service at its execution site.
	phaseCommitted
	// phaseResult: execution finished, result page set in transit home.
	phaseResult
	// phaseLost: execution wiped out by a fault, awaiting its watchdog.
	phaseLost
	// phaseDone: completed, rejected, or withdrawn; nothing in flight.
	phaseDone
)

// commit books attempt q at site: from now until release, the load
// table, the replica commitment ledger and — for an operator carrier —
// the operator ledger count it there.
func (s *System) commit(q *workload.Query, site int) {
	q.Exec = site
	q.Phase = phaseCommitted
	s.table.Assign(site, s.bound(q))
	s.table.AssignWork(site, q.EstCPUDemand(), q.EstDiskDemand(s.cfg.DiskTime))
	if s.repl != nil {
		s.repl.active[site][q.Object]++
	}
	if s.par != nil && s.par.instances[q] != nil {
		p := s.par
		p.commits++
		p.tableLive++
		p.spawned++
		p.inFlight++
	}
}

// release is the inverse of commit, at q's current site. A released
// carrier also leaves the operator registry.
func (s *System) release(q *workload.Query) {
	s.table.Complete(q.Exec, s.bound(q))
	s.table.CompleteWork(q.Exec, q.EstCPUDemand(), q.EstDiskDemand(s.cfg.DiskTime))
	if s.repl != nil {
		s.repl.active[q.Exec][q.Object]--
	}
	if s.par == nil {
		return
	}
	if _, ok := s.par.instances[q]; ok {
		p := s.par
		delete(p.instances, q)
		p.releases++
		p.tableLive--
		p.inFlight--
		if p.dlWithdrawing {
			p.dlOpReleases++
		}
	}
}

// start sends a committed attempt toward its site. One that reads its
// fragment (reads) ships its descriptor from home when it runs
// elsewhere; everything else lands in place — an operator above the
// scans receives its inputs through the intermediate-result shipments.
func (s *System) start(q *workload.Query, reads bool) {
	if reads && q.Exec != q.Home {
		s.ship(q, q.Home, q.Exec, s.cfg.Classes[q.Class].MsgLength, 0)
		return
	}
	s.land(q, q.Exec, reads)
}

// ship puts attempt q on the ring from → to and charges the transmission
// to it. On delivery a query descriptor lands with its copy check, a
// fragment fetch (kind eventKindFragment) lands without it, and a
// result (q in phaseResult) completes the query; a drop loses q.
func (s *System) ship(q *workload.Query, from, to int, size float64, kind byte) {
	t := s.ring.TransmitTime(size)
	q.Service += t
	q.NetService += t
	m := network.Message{From: from, To: to, Size: size, Kind: kind}
	switch {
	case q.Phase == phaseResult:
		m.OnDeliver = func() {
			if q.Phase != phaseDone { // not withdrawn while the result travelled
				s.complete(q)
			}
		}
	case kind == eventKindFragment:
		m.OnDeliver = func() { s.land(q, to, false) }
	default:
		m.OnDeliver = func() { s.land(q, to, true) }
	}
	if s.faults != nil {
		m.OnDrop = func() { s.lose(q) }
	}
	s.ring.Send(m)
}

// land starts attempt q at site. A dead site loses it. An attempt that
// reads its fragment (reads) at a site with no copy under the replica
// manager fetches the copy first when it was allocated degraded, and is
// otherwise lost — a crash wiped the copy while it travelled; any other
// missing-fragment execution is an allocator bug the auditor flags.
func (s *System) land(q *workload.Query, site int, reads bool) {
	switch {
	case q.Phase == phaseDone:
		// Withdrawn in transit; its commitment is already released.
	case !s.up(site):
		s.lose(q)
	case reads && s.repl != nil && !s.repl.mgr.Holds(site, q.Object):
		switch {
		case q.Degraded:
			s.fetch(q, site)
		case s.faults != nil:
			s.lose(q)
		default:
			s.repl.badExec++
			s.sites[site].Execute(q)
		}
	default:
		s.sites[site].Execute(q)
	}
}

// lose settles attempt q wiped out by a fault — a crash at its site, a
// dropped shipment, a dead destination or a copy wiped in transit. It
// releases q's commitment if it still holds one. A lost primary query
// waits for its fault watchdog. A lost clone or carrier retires at once:
// its race partner, if alive, carries on alone; with none left, a
// carrier collapses its plan and a clone's query is rejected.
func (s *System) lose(q *workload.Query) {
	if q.Phase == phaseDone {
		return // withdrawn meanwhile; nothing is left to lose
	}
	var inst *opInstance
	if s.par != nil {
		inst = s.par.instances[q]
	}
	if q.Phase == phaseCommitted {
		s.release(q)
	}
	var r *hedgeRace
	switch {
	case inst != nil:
		r = &inst.hedgeRace
		s.par.preempted++
	case s.hedge != nil:
		r = s.hedge.byClone[q]
	}
	if r == nil {
		s.faultLost(q)
		return
	}
	q.Phase = phaseDone
	s.audRetire(s.sched.Now())
	if q == r.clone {
		r.clone = nil
		s.hedge.activeClones--
		s.hedge.cancelled++
		if inst == nil {
			delete(s.hedge.byClone, q)
		}
		if r.primary.Phase != phaseDone {
			return // the primary races on alone
		}
	} else if r.clone != nil {
		return // the clone carries the operator alone
	}
	if inst != nil {
		s.sched.Cancel(r.timer)
		inst.state = instDone
		s.parPlanFailed(inst.pe)
		return
	}
	s.rejectQuery(r.primary)
}

// withdraw pulls attempt q back from wherever it is — a deadline abort,
// a hedge race's loser, or a collapsing plan's carrier. The phase tells
// what is outstanding:
//
//   - phaseCommitted: q holds a commitment and is either at its site
//     (aborted in place) or in transit (its delivery will find it done);
//   - phaseResult: execution already released it; only the homeward
//     result remains, dropped on delivery;
//   - phaseDeferred: parked by admission; the resubmission is dropped
//     and the admission ledger records the abort;
//   - phaseLost: nothing is in flight.
//
// A pending fault watchdog is retired (see faultRetire).
func (s *System) withdraw(q *workload.Query) {
	switch q.Phase {
	case phaseCommitted:
		s.sites[q.Exec].Abort(q)
		s.release(q)
	case phaseDeferred:
		s.adm.waiting--
		s.adm.aborted++
	}
	s.faultRetire(q)
	q.Phase = phaseDone
}

// hedgeRace is one primary attempt raced against at most one clone at
// another site — a hedged query, or a hedged operator instance (embedded
// in opInstance).
type hedgeRace struct {
	primary *workload.Query
	// clone is the racing re-issue, nil before the trigger fires and
	// after the clone is lost.
	clone *workload.Query
	// timer is the pending launch trigger.
	timer sim.Handle
}

// hedgeArm schedules race r's launch trigger at the class's hedge delay.
func (s *System) hedgeArm(r *hedgeRace) {
	r.timer = s.sched.After(s.hedgeDelay(r.primary.Class), func() { s.hedgeFire(r) })
	r.timer.SetKind(eventKindHedge)
}

// hedgeFire launches race r's clone if the primary is still committed:
// the policy picks the best up site other than the primary's, and a
// copy of the attempt races it there. The clone joins the auditor
// population; it carries no deadline, fault watchdog or race of its
// own. A carrier clone of a non-scan operator starts in place at its
// site: the small intermediate pages are assumed to travel with its
// descriptor rather than being shipped again.
func (s *System) hedgeFire(r *hedgeRace) {
	p := r.primary
	if p.Phase != phaseCommitted {
		return
	}
	var inst *opInstance
	if s.par != nil {
		inst = s.par.instances[p]
	}
	reads := inst == nil || inst.isScan()
	base := s.allSites
	if reads {
		base = s.candidateSites(p)
	}
	s.hedgeScratch = s.hedgeScratch[:0]
	for _, c := range base {
		if c != p.Exec && s.up(c) {
			s.hedgeScratch = append(s.hedgeScratch, c)
		}
	}
	if len(s.hedgeScratch) == 0 {
		return
	}
	site := s.pick(p, s.hedgeScratch)
	if site == policy.NoSite {
		return
	}
	c := &workload.Query{
		ID:         p.ID,
		Class:      p.Class,
		Home:       p.Home,
		Object:     p.Object,
		ReadsTotal: p.ReadsTotal,
		EstReads:   p.EstReads,
		EstPageCPU: p.EstPageCPU,
		PageCPU:    p.PageCPU,
		SubmitTime: p.SubmitTime,
	}
	r.clone = c
	s.hedge.launched++
	s.hedge.activeClones++
	if inst != nil {
		s.par.instances[c] = inst
	} else {
		s.hedge.byClone[c] = r
	}
	if s.aud != nil {
		s.aud.Submitted(s.sched.Now())
	}
	s.commit(c, site)
	s.start(c, reads)
}

// settle ends race r with attempt w finishing first (w is the primary
// when the race ends for another reason): the trigger is retired, the
// hedge ledger settled, and the losing attempt — nil when there is none
// — returned for the caller to withdraw.
func (s *System) settle(r *hedgeRace, w *workload.Query) *workload.Query {
	s.sched.Cancel(r.timer)
	loser := r.clone
	switch {
	case w == r.clone:
		loser = r.primary
		s.hedge.wins++
	case loser != nil:
		s.hedge.cancelled++
	}
	if r.clone != nil {
		s.hedge.activeClones--
		r.clone = nil
	}
	return loser
}

// pick runs the allocation policy for q over cands (nil = every site),
// preserving the ambient candidate set.
func (s *System) pick(q *workload.Query, cands []int) int {
	saved := s.env.Candidates
	s.env.Candidates = cands
	site := s.pol.Select(q, q.Home, s.env)
	s.env.Candidates = saved
	return site
}
