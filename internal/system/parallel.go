package system

import (
	"fmt"
	"math"

	"dqalloc/internal/check"
	"dqalloc/internal/network"
	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// This file is the parallel-query extension: queries may be small
// operator trees (internal/workload plans) instead of monolithic
// reads×(disk→CPU) loops, and the allocator may split one query across
// sites — per-operator placement, and fragment-and-replicate splits of
// the bottom join at a cost-model-chosen degree of parallelism.
// Operators execute as "carrier" queries on the existing site engine
// (their per-resource demands encoded in ReadsTotal/PageCPU), and
// intermediate results ship between sites as ring messages tagged
// eventKindOperator.
//
// Everything here is gated on s.par != nil; a run with
// Config.Parallel.Enabled == false schedules no extra events, draws no
// extra random numbers, and is bit-identical to a build without the
// subsystem. The plan sampler draws from its own dedicated root child
// (12), so even an enabled run whose every plan degenerates to a single
// scan (JoinProb 0) leaves all other streams untouched and reproduces
// the monolithic model event for event.
//
// Simplifications, stated rather than hidden: carriers bypass admission
// control (the logical query was already admitted at submission), plans
// are not migrated (Config.Validate forbids the combination), lost
// operators are not individually retried — any fault touching a plan
// collapses the whole plan into a rejection, which the watchdog-free
// carriers make exactly-once — and a hedge clone of a non-scan operator
// starts at its site without re-shipping the inputs (the model assumes
// the small intermediate pages travel with the clone descriptor).

// eventKindOperator tags ring transmissions carrying an operator's
// intermediate result pages, so traces distinguish intra-query data
// flow from query descriptors and fragment copies.
const eventKindOperator byte = 0x23

// ParallelConfig parameterizes operator-tree queries. The zero value
// (Enabled == false) disables them.
type ParallelConfig struct {
	// Enabled turns operator-tree queries on.
	Enabled bool
	// Mode selects how multi-operator plans are placed (single site,
	// per-operator, or per-operator with a fragment-and-replicate split
	// of the bottom join).
	Mode policy.ParallelMode

	// JoinProb is the probability a submitted query becomes a join tree;
	// the rest stay single-scan plans, observably the monolithic query.
	JoinProb float64
	// FilterProb is the probability a join tree gets a filter above the
	// join.
	FilterProb float64
	// SelScan and SelJoin are the scan and join selectivities (output
	// pages per input page).
	SelScan, SelJoin float64
	// JoinPageCPU and FilterPageCPU are the per-page CPU means of join
	// and filter operators; scans use the query class's PageCPUTime.
	JoinPageCPU, FilterPageCPU float64
	// ShipBytesPerPage converts intermediate-result pages into ring
	// transmission size.
	ShipBytesPerPage float64
	// HotProb is the probability a join tree reads the hot fragment pair
	// (fragments 0 and 1) — the Section 1.1 hot spot where everyone
	// submits the same query. Positive values need a Placement of at
	// least two objects.
	HotProb float64

	// MaxDOP caps the fragment-and-replicate split width; 0 means
	// NumSites.
	MaxDOP int
	// SplitOverhead is the per-extra-site startup price the DOP cost
	// model charges (on top of shipping the replicated input once more).
	SplitOverhead float64

	// Hedge arms the straggler hedge on remotely dispatched operators:
	// an operator still unfinished at its class's hedge delay races a
	// clone at the next-best site, reusing the hedged-execution
	// machinery at operator granularity. Requires Hedge.Enabled.
	Hedge bool
}

// DefaultParallel returns a moderate operator-tree workload: 30% of
// queries become joins, placed per-operator.
func DefaultParallel() ParallelConfig {
	return ParallelConfig{
		Enabled:          true,
		Mode:             policy.ParallelOperator,
		JoinProb:         0.3,
		FilterProb:       0.25,
		SelScan:          0.5,
		SelJoin:          0.25,
		JoinPageCPU:      0.1,
		FilterPageCPU:    0.02,
		ShipBytesPerPage: 0.05,
		SplitOverhead:    2,
	}
}

// validate reports the first parallel-config error, if any.
func (p ParallelConfig) validate() error {
	if !p.Enabled {
		return nil
	}
	if !p.Mode.Valid() {
		return fmt.Errorf("system: invalid parallel mode %d", p.Mode)
	}
	for _, pr := range [...]struct {
		name string
		v    float64
	}{{"JoinProb", p.JoinProb}, {"FilterProb", p.FilterProb}, {"HotProb", p.HotProb}} {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("system: parallel %s %v outside [0,1]", pr.name, pr.v)
		}
	}
	for _, pr := range [...]struct {
		name string
		v    float64
	}{{"SelScan", p.SelScan}, {"SelJoin", p.SelJoin}} {
		if math.IsNaN(pr.v) || math.IsInf(pr.v, 0) || pr.v <= 0 {
			return fmt.Errorf("system: parallel %s %v must be positive and finite", pr.name, pr.v)
		}
	}
	for _, pr := range [...]struct {
		name string
		v    float64
	}{
		{"JoinPageCPU", p.JoinPageCPU}, {"FilterPageCPU", p.FilterPageCPU},
		{"ShipBytesPerPage", p.ShipBytesPerPage}, {"SplitOverhead", p.SplitOverhead},
	} {
		if math.IsNaN(pr.v) || math.IsInf(pr.v, 0) || pr.v < 0 {
			return fmt.Errorf("system: parallel %s %v must be finite and non-negative", pr.name, pr.v)
		}
	}
	if p.MaxDOP < 0 {
		return fmt.Errorf("system: parallel MaxDOP %d < 0", p.MaxDOP)
	}
	return nil
}

// Operator-instance lifecycle states.
const (
	// instPending: placed but not yet dispatched (waiting on inputs).
	instPending int8 = iota
	// instDispatched: carrier committed to its site (in transit or
	// executing), possibly racing a hedge clone.
	instDispatched
	// instDone: retired — completed, withdrawn, or lost.
	instDone
)

// opInstance is one placed instance of one plan operator. Unsplit
// operators have exactly one; a fragment-and-replicate split join (and
// its partitioned input scan) has one per chosen site.
type opInstance struct {
	pe *planExec
	// node is the plan operator index.
	node int
	// site is the placement decision.
	site int
	// outBytes is the ring size of this instance's output shipment.
	outBytes float64
	// outTo are the consumer instances this instance's output feeds.
	outTo []*opInstance
	// waiting counts input shipments not yet delivered; the instance
	// dispatches when it reaches zero.
	waiting int
	state   int8

	// hedgeRace's primary is the instance's carrier; its clone, when
	// operator hedging fires, races it at another site.
	hedgeRace
}

// isScan reports whether the instance executes a scan operator.
func (in *opInstance) isScan() bool {
	return in.pe.plan.Ops[in.node].Kind == workload.OpScan
}

// planExec is the execution state of one multi-operator query.
type planExec struct {
	q    *workload.Query
	plan workload.Plan
	// insts[node] are the placed instances of each operator.
	insts [][]*opInstance
	// rootRemaining counts root-instance results not yet delivered home.
	rootRemaining int
	// partNode/splitNode identify the fragment-and-replicate pair
	// (partitioned scan feeding its colocated join instance); -1 outside
	// DOP mode.
	partNode, splitNode int
	// aborted latches plan collapse (deadline abort or fault), making
	// every in-flight callback for the plan a no-op.
	aborted bool
}

// parallelRuntime is the per-run state of the parallel-query subsystem.
type parallelRuntime struct {
	cfg ParallelConfig
	gen *workload.PlanGen

	// instances maps every dispatched carrier (primary or clone) to its
	// instance; plans maps every live multi-operator logical query to
	// its execution state.
	instances map[*workload.Query]*opInstance
	plans     map[*workload.Query]*planExec

	scratch  []int  // reusable site pool for split placement
	siteSeen []bool // reusable distinct-site marker for the DOP histogram

	// Operator ledger (check.OperatorTotals).
	spawned      uint64
	completedOps uint64
	abortedOps   uint64
	preempted    uint64
	inFlight     int
	commits      uint64
	releases     uint64
	tableLive    int

	// Deadline-withdrawal ledger (check.DeadlineTotals extension):
	// dlOpsAborted counts attempts withdrawn by deadline aborts,
	// dlOpReleases the load-table releases performed while withdrawing —
	// equal exactly when each withdrawal releases once.
	dlOpsAborted  uint64
	dlOpReleases  uint64
	dlWithdrawing bool

	// Results surface.
	parallelQueries uint64
	dopHist         []uint64
	interBytes      float64
	opCPUBusy       float64
	opDiskBusy      float64
	opNetBusy       float64
}

// setupParallel builds the parallel runtime during New. stream must be
// the root's dedicated plan-sampler child (12).
func (s *System) setupParallel(stream *rng.Stream) error {
	cfg := s.cfg.Parallel
	gcfg := workload.PlanGenConfig{
		JoinProb:         cfg.JoinProb,
		FilterProb:       cfg.FilterProb,
		SelScan:          cfg.SelScan,
		SelJoin:          cfg.SelJoin,
		JoinPageCPU:      cfg.JoinPageCPU,
		FilterPageCPU:    cfg.FilterPageCPU,
		ShipBytesPerPage: cfg.ShipBytesPerPage,
		HotProb:          cfg.HotProb,
	}
	if s.cfg.Placement != nil {
		gcfg.NumFrags = s.cfg.Placement.NumObjects()
	}
	gen, err := workload.NewPlanGen(gcfg, stream)
	if err != nil {
		return err
	}
	s.par = &parallelRuntime{
		cfg:       cfg,
		gen:       gen,
		instances: make(map[*workload.Query]*opInstance),
		plans:     make(map[*workload.Query]*planExec),
	}
	return nil
}

// parTotals implements the closure read by check.NewOperatorConservation.
func (s *System) parTotals() check.OperatorTotals {
	p := s.par
	return check.OperatorTotals{
		Spawned:   p.spawned,
		Completed: p.completedOps,
		Aborted:   p.abortedOps,
		Preempted: p.preempted,
		InFlight:  p.inFlight,
		Commits:   p.commits,
		Releases:  p.releases,
		TableLive: p.tableLive,
	}
}

// parNumFrags returns the fragment count plans are validated against (0
// = unfragmented).
func (s *System) parNumFrags() int {
	if s.cfg.Placement != nil {
		return s.cfg.Placement.NumObjects()
	}
	return 0
}

// pages rounds a fractional page count to at least one page, matching
// workload's clamp convention.
func pages(x float64) int {
	n := int(math.Round(x))
	if n < 1 {
		return 1
	}
	return n
}

// parSubmit is the allocation entry point with operator trees on: the
// sampler draws a plan, single-operator plans take the monolithic path
// unchanged, and multi-operator plans enter the engine.
func (s *System) parSubmit(q *workload.Query) {
	plan := s.par.gen.New(q, s.cfg.Classes[q.Class].NumReads)
	if len(plan.Ops) == 1 {
		s.allocate(q)
		return
	}
	if err := plan.Validate(s.parNumFrags(), s.cfg.NumSites); err != nil {
		panic(fmt.Sprintf("system: generated plan invalid: %v", err))
	}
	s.parStart(q, plan)
}

// parStart places and launches a multi-operator plan. A plan that
// cannot be placed (no up candidate for some operator) is rejected
// whole — there is no per-operator retry.
func (s *System) parStart(q *workload.Query, plan workload.Plan) {
	s.deadlineArm(q)
	pe := &planExec{q: q, plan: plan, partNode: -1, splitNode: -1}
	if !s.parPlace(pe) {
		s.rejectQuery(q)
		return
	}
	s.par.plans[q] = pe
	s.par.parallelQueries++
	s.parRecordDOP(pe)
	for _, insts := range pe.insts {
		for _, inst := range insts {
			if pe.aborted {
				return
			}
			if inst.waiting == 0 && inst.state == instPending {
				s.parDispatch(inst)
			}
		}
	}
}

// parRecordDOP records the plan's realized degree of parallelism — the
// number of distinct sites its instances landed on — in the histogram.
func (s *System) parRecordDOP(pe *planExec) {
	p := s.par
	if p.dopHist == nil {
		p.dopHist = make([]uint64, s.cfg.NumSites)
		p.siteSeen = make([]bool, s.cfg.NumSites)
	}
	distinct := 0
	for _, insts := range pe.insts {
		for _, inst := range insts {
			if !p.siteSeen[inst.site] {
				p.siteSeen[inst.site] = true
				distinct++
			}
		}
	}
	for _, insts := range pe.insts {
		for _, inst := range insts {
			p.siteSeen[inst.site] = false
		}
	}
	p.dopHist[distinct-1]++
}

// parCarrier builds the carrier query executing one operator: the
// site engine and load table see a query with the operator's demands.
// Scans reference their fragment; non-scans keep the logical query's
// object (they need no fragment access, but the replication ledger
// stays balanced).
func (s *System) parCarrier(pe *planExec, node int) *workload.Query {
	op := pe.plan.Ops[node]
	q := pe.q
	c := &workload.Query{
		ID:         q.ID,
		Class:      q.Class,
		Home:       q.Home,
		Exec:       q.Home,
		Object:     q.Object,
		ReadsTotal: op.Reads,
		EstReads:   float64(op.Reads),
		EstPageCPU: op.PageCPU,
		PageCPU:    op.PageCPU,
		SubmitTime: q.SubmitTime,
	}
	if op.PageCPU == 0 {
		c.EstPageCPU = s.cfg.Classes[q.Class].PageCPUTime
	}
	if op.Kind == workload.OpScan {
		c.Object = op.Frag
	}
	return c
}

// parPlace places every operator of the plan according to the
// configured mode, wires the dataflow edges, and initializes the
// dispatch-readiness counters. Reports false when some operator has no
// feasible site.
func (s *System) parPlace(pe *planExec) bool {
	plan := &pe.plan
	n := len(plan.Ops)
	pe.insts = make([][]*opInstance, n)

	switch s.par.cfg.Mode {
	case policy.ParallelSingle:
		// One policy-chosen anchor hosts the whole tree; under a
		// placement, scans still go to fragment holders (the anchor may
		// not hold their fragments).
		var cands []int
		if s.cfg.Placement != nil {
			cands = s.candidateSites(pe.q)
		}
		anchor := s.pick(pe.q, cands)
		if anchor == policy.NoSite {
			return false
		}
		for i, op := range plan.Ops {
			if op.Kind == workload.OpScan && s.cfg.Placement != nil {
				if !s.parPlaceOp(pe, i) {
					return false
				}
				continue
			}
			s.parInstAt(pe, i, anchor, s.parCarrier(pe, i))
		}
	case policy.ParallelOperator:
		for i := range plan.Ops {
			if !s.parPlaceOp(pe, i) {
				return false
			}
		}
	case policy.ParallelDOP:
		split := -1
		for i, op := range plan.Ops {
			if op.Kind != workload.OpJoin {
				continue
			}
			allScans := true
			for _, in := range op.Inputs {
				if plan.Ops[in].Kind != workload.OpScan {
					allScans = false
					break
				}
			}
			if allScans {
				split = i
				break
			}
		}
		for i := range plan.Ops {
			if split >= 0 && (i == split || i == plan.Ops[split].Inputs[0]) {
				continue // placed by parPlaceSplit below
			}
			if !s.parPlaceOp(pe, i) {
				return false
			}
		}
		if split >= 0 && !s.parPlaceSplit(pe, split) {
			return false
		}
	}

	parent := pe.plan.Parent()
	for node := 0; node < n; node++ {
		p := parent[node]
		if p < 0 {
			continue
		}
		for i, inst := range pe.insts[node] {
			if node == pe.partNode && p == pe.splitNode {
				// Partitioned scan share i feeds only its colocated join
				// instance i.
				inst.outTo = pe.insts[p][i : i+1]
			} else {
				inst.outTo = pe.insts[p]
			}
			for _, tgt := range inst.outTo {
				tgt.waiting++
			}
		}
	}
	pe.rootRemaining = len(pe.insts[plan.Root])
	return true
}

// parInstAt places one unsplit instance of node, carried by c, at site.
func (s *System) parInstAt(pe *planExec, node, site int, c *workload.Query) {
	pe.insts[node] = []*opInstance{{
		pe:        pe,
		node:      node,
		site:      site,
		outBytes:  pe.plan.Ops[node].OutBytes,
		hedgeRace: hedgeRace{primary: c},
	}}
}

// parPlaceOp places one operator via the allocation policy, costing it
// by its own demands — the multi-resource balanced placement. Scans
// under a placement are confined to their fragment's holders.
func (s *System) parPlaceOp(pe *planExec, node int) bool {
	c := s.parCarrier(pe, node)
	var cands []int
	if pe.plan.Ops[node].Kind == workload.OpScan && s.cfg.Placement != nil {
		cands = s.candidateSites(c)
		if len(cands) == 0 {
			return false
		}
	}
	site := s.pick(c, cands)
	if site == policy.NoSite {
		return false
	}
	s.parInstAt(pe, node, site, c)
	return true
}

// parPlaceSplit places a fragment-and-replicate split of join: its
// partitioned input scan (Inputs[0]) is sharded over k policy-ranked
// sites with a colocated join instance each, while the remaining inputs
// replicate their output to every chosen site. k is the requested DOP
// or the cost model's argmin.
func (s *System) parPlaceSplit(pe *planExec, joinNode int) bool {
	plan := &pe.plan
	join := plan.Ops[joinNode]
	partNode := join.Inputs[0]
	part := plan.Ops[partNode]
	partC := s.parCarrier(pe, partNode)

	// Candidate pool: up sites, holding the fragment under a placement.
	pool := s.par.scratch[:0]
	if s.cfg.Placement != nil {
		for _, c := range s.candidateSites(partC) {
			if s.up(c) {
				pool = append(pool, c)
			}
		}
	} else {
		for c := 0; c < s.cfg.NumSites; c++ {
			if s.up(c) {
				pool = append(pool, c)
			}
		}
	}
	s.par.scratch = pool
	if len(pool) == 0 {
		return false
	}

	// Cost model: every site repeats the replicated input's join share
	// (fixed), the partitioned scan and its join share divide (divisible),
	// and each extra site pays startup plus one more copy of the
	// replicated input on the ring (overhead).
	scanCPU := s.cfg.Classes[pe.q.Class].PageCPUTime
	joinCPU := join.PageCPU
	if joinCPU == 0 {
		joinCPU = scanCPU
	}
	perJoinPage := s.cfg.DiskTime + joinCPU
	repOut := 0
	repBytes := 0.0
	for _, in := range join.Inputs[1:] {
		repOut += plan.Ops[in].OutPages
		repBytes += plan.Ops[in].OutBytes
	}
	fixed := float64(repOut) * perJoinPage
	divisible := float64(part.Reads)*(s.cfg.DiskTime+scanCPU) + float64(part.OutPages)*perJoinPage
	overhead := s.par.cfg.SplitOverhead + s.ring.TransmitTime(repBytes)

	kmax := len(pool)
	if m := s.par.cfg.MaxDOP; m > 0 && m < kmax {
		kmax = m
	}
	if part.Reads < kmax {
		kmax = part.Reads
	}
	k := join.DOP
	if k < 1 {
		k = policy.ChooseDOP(fixed, divisible, overhead, kmax)
	}
	if k > kmax {
		k = kmax
	}

	// Pick k distinct sites by repeated policy selection over a
	// shrinking pool: the straggler-aware ranking chooses the least
	// loaded holders first.
	sites := make([]int, 0, k)
	for len(sites) < k {
		site := s.pick(partC, pool)
		if site == policy.NoSite {
			break
		}
		sites = append(sites, site)
		for i, c := range pool {
			if c == site {
				pool = append(pool[:i], pool[i+1:]...)
				break
			}
		}
	}
	if len(sites) == 0 {
		return false
	}

	// The pool was already confined to live holders, so no placement
	// filter (and no degraded fallback) applies here.
	rep, err := workload.ExpandFragRep(nil, part.Frag, part.Reads, sites)
	if err != nil || rep.Degraded {
		return false
	}
	k = len(rep.Sites)
	shares := make([]*opInstance, k)
	joins := make([]*opInstance, k)
	cfg := s.par.cfg
	for i := 0; i < k; i++ {
		sc := s.parCarrier(pe, partNode)
		sc.ReadsTotal = rep.Shares[i]
		sc.EstReads = float64(rep.Shares[i])
		shareOut := pages(cfg.SelScan * float64(rep.Shares[i]))
		shares[i] = &opInstance{
			pe: pe, node: partNode, site: rep.Sites[i],
			hedgeRace: hedgeRace{primary: sc},
			// Colocated with its join instance: no ring shipment.
		}
		jc := s.parCarrier(pe, joinNode)
		jreads := shareOut + repOut
		jc.ReadsTotal = jreads
		jc.EstReads = float64(jreads)
		jout := pages(cfg.SelJoin * float64(jreads))
		joins[i] = &opInstance{
			pe: pe, node: joinNode, site: rep.Sites[i],
			hedgeRace: hedgeRace{primary: jc},
			outBytes:  float64(jout) * cfg.ShipBytesPerPage,
		}
	}
	pe.insts[partNode] = shares
	pe.insts[joinNode] = joins
	pe.partNode, pe.splitNode = partNode, joinNode
	return true
}

// parDispatch commits one ready instance's carrier to its site: the
// carrier joins the operator registry, the load table and the audited
// population, arms its hedge trigger when operator hedging is on and it
// runs away from home, and starts (see start).
func (s *System) parDispatch(inst *opInstance) {
	inst.state = instDispatched
	c := inst.primary
	s.par.instances[c] = inst
	s.commit(c, inst.site)
	if s.aud != nil {
		s.aud.Submitted(s.sched.Now())
	}
	if s.par.cfg.Hedge && inst.site != c.Home {
		s.hedgeArm(&inst.hedgeRace)
	}
	s.start(c, inst.isScan())
}

// parOpDone fires when a carrier's last CPU burst ends: the attempt
// retires, any race settles (the loser, if still live, is withdrawn),
// the operator's realized service folds into the logical query, and the
// output ships to its consumers — or home, for root instances.
func (s *System) parOpDone(inst *opInstance, w *workload.Query) {
	pe := inst.pe
	s.release(w)
	w.Phase = phaseDone
	s.par.completedOps++
	s.audRetire(s.sched.Now())
	if l := s.settle(&inst.hedgeRace, w); l != nil && l.Phase != phaseDone {
		s.parAbortOp(l, false)
	}
	inst.state = instDone

	q := pe.q
	q.Service += w.Service
	q.NetService += w.NetService
	q.DiskService += w.DiskService
	s.par.opDiskBusy += w.DiskService
	s.par.opCPUBusy += w.ExecService() - w.DiskService
	s.par.opNetBusy += w.NetService

	if len(inst.outTo) == 0 {
		s.parRootResult(pe, w.Exec)
		return
	}
	for _, tgt := range inst.outTo {
		s.parShipOutput(inst, w.Exec, tgt)
	}
}

// parShipOutput moves one instance's output to one consumer instance —
// free when colocated, a ring transmission otherwise.
func (s *System) parShipOutput(inst *opInstance, from int, tgt *opInstance) {
	pe := inst.pe
	if from == tgt.site {
		s.parDeliver(pe, tgt)
		return
	}
	t := s.parSend(pe, from, tgt.site, inst.outBytes, eventKindOperator, func() { s.parDeliver(pe, tgt) })
	s.par.opNetBusy += t
	s.par.interBytes += inst.outBytes
}

// parDeliver counts one input arrival at a consumer instance,
// dispatching it when its inputs are complete.
func (s *System) parDeliver(pe *planExec, tgt *opInstance) {
	if pe.aborted {
		return
	}
	tgt.waiting--
	if tgt.waiting == 0 && tgt.state == instPending {
		s.parDispatch(tgt)
	}
}

// parRootResult ships one root instance's share of the final result
// home (a split root sends one share per instance).
func (s *System) parRootResult(pe *planExec, from int) {
	if from == pe.q.Home {
		s.parRootArrived(pe)
		return
	}
	size := s.cfg.Classes[pe.q.Class].MsgLength / float64(len(pe.insts[pe.plan.Root]))
	s.parSend(pe, from, pe.q.Home, size, 0, func() { s.parRootArrived(pe) })
}

// parRootArrived completes the logical query once every root share is
// home.
func (s *System) parRootArrived(pe *planExec) {
	if pe.aborted {
		return
	}
	pe.rootRemaining--
	if pe.rootRemaining > 0 {
		return
	}
	delete(s.par.plans, pe.q)
	s.complete(pe.q)
}

// parSend puts plan data — an intermediate result or a root share — on
// the ring, charging the transmission time (returned) to the logical
// query. Plan data has no retry path (its producer already retired), so
// a drop collapses the plan; deliver must ignore an aborted plan.
func (s *System) parSend(pe *planExec, from, to int, size float64, kind byte, deliver func()) float64 {
	t := s.ring.TransmitTime(size)
	pe.q.Service += t
	pe.q.NetService += t
	m := network.Message{From: from, To: to, Size: size, Kind: kind, OnDeliver: deliver}
	if s.faults != nil {
		m.OnDrop = func() { s.parPlanFailed(pe) }
	}
	s.ring.Send(m)
	return t
}

// parPlanFailed collapses a plan a fault broke: every surviving attempt
// is withdrawn and the logical query is rejected.
func (s *System) parPlanFailed(pe *planExec) {
	if pe.aborted {
		return
	}
	s.parWithdraw(pe, false)
	s.rejectQuery(pe.q)
}

// parWithdraw aborts every in-flight attempt of a plan exactly once:
// racing clones and live primaries are withdrawn (see withdraw) and
// their triggers retired. byDeadline routes the withdrawals into the
// deadline-conservation ledger.
func (s *System) parWithdraw(pe *planExec, byDeadline bool) {
	pe.aborted = true
	delete(s.par.plans, pe.q)
	s.par.dlWithdrawing = byDeadline
	for _, insts := range pe.insts {
		for _, inst := range insts {
			if inst.state != instDispatched {
				continue
			}
			if c := s.settle(&inst.hedgeRace, inst.primary); c != nil {
				s.parAbortOp(c, byDeadline)
			}
			if inst.primary.Phase != phaseDone {
				s.parAbortOp(inst.primary, byDeadline)
			}
			inst.state = instDone
		}
	}
	s.par.dlWithdrawing = false
}

// parAbortOp withdraws one live carrier attempt and retires it from the
// operator ledger and the audited population.
func (s *System) parAbortOp(a *workload.Query, byDeadline bool) {
	if byDeadline {
		s.par.dlOpsAborted++
	}
	s.withdraw(a)
	s.par.abortedOps++
	s.audRetire(s.sched.Now())
}
