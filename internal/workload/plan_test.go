package workload

import (
	"math"
	"testing"

	"dqalloc/internal/replica"
	"dqalloc/internal/rng"
)

// validTree returns a four-operator scan-scan-join-filter plan that
// Validate accepts; tests mutate copies of it to probe single defects.
func validTree() Plan {
	return Plan{
		Ops: []Operator{
			{Kind: OpScan, Reads: 10, OutPages: 5, Frag: 0},
			{Kind: OpScan, Reads: 8, OutPages: 4, Frag: 1},
			{Kind: OpJoin, Reads: 9, PageCPU: 0.1, OutPages: 3, Frag: -1, Inputs: []int{0, 1}},
			{Kind: OpFilter, Reads: 3, PageCPU: 0.02, OutPages: 1, Frag: -1, Inputs: []int{2}},
		},
		Root: 3,
	}
}

func TestPlanValidateAccepts(t *testing.T) {
	p := validTree()
	if err := p.Validate(4, 6); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	single := Plan{Ops: []Operator{{Kind: OpScan, Reads: 1, Frag: 0}}}
	if err := single.Validate(0, 0); err != nil {
		t.Fatalf("single scan rejected: %v", err)
	}
}

func TestPlanValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"empty plan", func(p *Plan) { p.Ops = nil }},
		{"root out of range", func(p *Plan) { p.Root = 7 }},
		{"negative root", func(p *Plan) { p.Root = -1 }},
		{"scan with inputs", func(p *Plan) { p.Ops[0].Inputs = []int{1} }},
		{"scan fragment negative", func(p *Plan) { p.Ops[0].Frag = -1 }},
		{"scan fragment out of range", func(p *Plan) { p.Ops[0].Frag = 4 }},
		{"join with one input", func(p *Plan) { p.Ops[2].Inputs = []int{0}; p.Ops[1].Inputs = nil; p.Ops[1].Kind = OpScan }},
		{"join carrying a fragment", func(p *Plan) { p.Ops[2].Frag = 2 }},
		{"filter with two inputs", func(p *Plan) { p.Ops[3].Inputs = []int{2, 0} }},
		{"invalid kind", func(p *Plan) { p.Ops[0].Kind = 0 }},
		{"zero reads", func(p *Plan) { p.Ops[1].Reads = 0 }},
		{"negative output pages", func(p *Plan) { p.Ops[2].OutPages = -1 }},
		{"NaN page CPU", func(p *Plan) { p.Ops[2].PageCPU = math.NaN() }},
		{"infinite output bytes", func(p *Plan) { p.Ops[3].OutBytes = math.Inf(1) }},
		{"negative DOP", func(p *Plan) { p.Ops[2].DOP = -1 }},
		{"DOP beyond site count", func(p *Plan) { p.Ops[2].DOP = 7 }},
		{"DOP on a scan", func(p *Plan) { p.Ops[0].DOP = 2 }},
		{"self input", func(p *Plan) { p.Ops[2].Inputs = []int{0, 2} }},
		{"input out of range", func(p *Plan) { p.Ops[2].Inputs = []int{0, 9} }},
		{"root consumed", func(p *Plan) { p.Root = 2 }},
		{"operator consumed twice", func(p *Plan) { p.Ops[3].Inputs = []int{2}; p.Ops[2].Inputs = []int{0, 1, 3} }},
		{"unreachable operator", func(p *Plan) { p.Ops[2].Inputs = []int{0, 0} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validTree()
			// Deep-copy the operator slice so mutations don't alias.
			p.Ops = append([]Operator(nil), p.Ops...)
			tc.mutate(&p)
			if err := p.Validate(4, 6); err == nil {
				t.Fatal("defective plan accepted")
			}
		})
	}
	// A two-node cycle is unreachable from the root and must be rejected
	// even though every consumption count balances.
	cyc := Plan{
		Ops: []Operator{
			{Kind: OpScan, Reads: 1, Frag: 0},
			{Kind: OpFilter, Reads: 1, Frag: -1, Inputs: []int{2}},
			{Kind: OpFilter, Reads: 1, Frag: -1, Inputs: []int{1}},
		},
		Root: 0,
	}
	if err := cyc.Validate(0, 0); err == nil {
		t.Fatal("cyclic plan accepted")
	}
	// An oversized plan is malformed regardless of structure.
	big := Plan{Ops: make([]Operator, MaxPlanOps+1)}
	if err := big.Validate(0, 0); err == nil {
		t.Fatal("oversized plan accepted")
	}
}

func TestPlanParent(t *testing.T) {
	p := validTree()
	parent := p.Parent()
	want := []int{2, 2, 3, -1}
	for i, w := range want {
		if parent[i] != w {
			t.Fatalf("parent[%d] = %d, want %d (full: %v)", i, parent[i], w, parent)
		}
	}
}

// FuzzPlanValidate drives Validate with arbitrary operator tables: it
// must never panic, and any plan it accepts must satisfy the structural
// invariants the execution engine relies on (in-range inputs, every
// non-root consumed exactly once, a well-formed Parent map).
func FuzzPlanValidate(f *testing.F) {
	f.Add(int8(1), 10, 0, 0, 0.0, []byte{})
	f.Add(int8(3), 9, -1, 0, math.NaN(), []byte{0, 1})
	f.Add(int8(2), 0, 2, 3, math.Inf(1), []byte{1, 1, 255})
	f.Fuzz(func(t *testing.T, kind int8, reads, frag, dop int, cpu float64, edges []byte) {
		// Build a plan of up to 5 operators: op 0 is fully fuzzed, the rest
		// form a fuzz-wired graph whose edges come from the byte string.
		n := len(edges)/2 + 1
		if n > 5 {
			n = 5
		}
		ops := make([]Operator, n)
		ops[0] = Operator{Kind: OpKind(kind), Reads: reads, Frag: frag, DOP: dop, PageCPU: cpu}
		for i := 1; i < n; i++ {
			a, b := int(edges[(i-1)*2]), 0
			if (i-1)*2+1 < len(edges) {
				b = int(edges[(i-1)*2+1])
			}
			ops[i] = Operator{Kind: OpJoin, Reads: 1, Frag: -1, Inputs: []int{a % (n + 1), b % (n + 1)}}
		}
		root := 0
		if len(edges) > 0 {
			root = int(edges[0]) % (n + 2)
		}
		p := Plan{Ops: ops, Root: root}
		if err := p.Validate(4, 6); err != nil {
			return
		}
		// Accepted: the engine's structural preconditions must hold.
		parent := p.Parent()
		if parent[p.Root] != -1 {
			t.Fatalf("accepted plan's root %d has parent %d", p.Root, parent[p.Root])
		}
		for i, op := range p.Ops {
			if i != p.Root && (parent[i] < 0 || parent[i] >= len(p.Ops)) {
				t.Fatalf("accepted plan: op %d parent %d out of range", i, parent[i])
			}
			if op.Reads < 1 {
				t.Fatalf("accepted plan: op %d reads %d", i, op.Reads)
			}
			for _, in := range op.Inputs {
				if in < 0 || in >= len(p.Ops) || in == i {
					t.Fatalf("accepted plan: op %d has bad input %d", i, in)
				}
			}
		}
	})
}

// TestExpandFragRepCoverage pins the exactly-once property: over many
// page counts and site sets — with and without a placement constraint —
// every share is at least one page and the shares sum exactly to the
// fragment total, so each input page lands in exactly one shipment set.
func TestExpandFragRepCoverage(t *testing.T) {
	pl, err := replica.NewRoundRobin(6, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.NewStream(99)
	for trial := 0; trial < 500; trial++ {
		pages := 1 + stream.Intn(40)
		nsites := 1 + stream.Intn(6)
		perm := stream.Perm(6)
		sites := perm[:nsites]
		var usePl *replica.Placement
		frag := 0
		if stream.Bernoulli(0.5) {
			usePl = pl
			frag = stream.Intn(8)
		}
		rep, err := ExpandFragRep(usePl, frag, pages, sites)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(rep.Sites) != len(rep.Shares) || len(rep.Sites) == 0 {
			t.Fatalf("trial %d: %d sites, %d shares", trial, len(rep.Sites), len(rep.Shares))
		}
		sum, seen := 0, map[int]bool{}
		offered := map[int]bool{}
		for _, s := range sites {
			offered[s] = true
		}
		for i, s := range rep.Sites {
			if rep.Shares[i] < 1 {
				t.Fatalf("trial %d: share %d = %d pages", trial, i, rep.Shares[i])
			}
			if seen[s] {
				t.Fatalf("trial %d: site %d assigned twice", trial, s)
			}
			seen[s] = true
			if !offered[s] {
				t.Fatalf("trial %d: site %d not among the offered candidates", trial, s)
			}
			if usePl != nil && !rep.Degraded && !usePl.Holds(s, frag) {
				t.Fatalf("trial %d: non-degraded share at site %d, which lacks fragment %d", trial, s, frag)
			}
			sum += rep.Shares[i]
		}
		if sum != pages {
			t.Fatalf("trial %d: shares sum to %d, want %d", trial, sum, pages)
		}
		if rep.Degraded && len(rep.Sites) != 1 {
			t.Fatalf("trial %d: degraded expansion across %d sites", trial, len(rep.Sites))
		}
	}
}

// TestExpandFragRepDegraded forces the fallback: when no offered site
// holds the fragment, the whole scan collapses onto the first offered
// site and is flagged so the engine can fetch the fragment first.
func TestExpandFragRepDegraded(t *testing.T) {
	pl, err := replica.NewRoundRobin(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	frag := 0
	var holder int
	for s := 0; s < 6; s++ {
		if pl.Holds(s, frag) {
			holder = s
		}
	}
	offered := make([]int, 0, 3)
	for s := 0; s < 6 && len(offered) < 3; s++ {
		if s != holder {
			offered = append(offered, s)
		}
	}
	rep, err := ExpandFragRep(pl, frag, 17, offered)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("expansion over non-holders not flagged degraded")
	}
	if len(rep.Sites) != 1 || rep.Sites[0] != offered[0] || rep.Shares[0] != 17 {
		t.Fatalf("degraded fallback = %+v, want all 17 pages at site %d", rep, offered[0])
	}
}

func TestExpandFragRepErrors(t *testing.T) {
	if _, err := ExpandFragRep(nil, 0, 0, []int{1}); err == nil {
		t.Error("zero pages accepted")
	}
	if _, err := ExpandFragRep(nil, 0, 5, nil); err == nil {
		t.Error("empty site set accepted")
	}
	if _, err := ExpandFragRep(nil, 0, 5, []int{1, 1}); err == nil {
		t.Error("duplicate site accepted")
	}
	if _, err := ExpandFragRep(nil, 0, 5, []int{-1}); err == nil {
		t.Error("negative site accepted")
	}
	pl, err := replica.NewRoundRobin(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpandFragRep(pl, 9, 5, []int{0}); err == nil {
		t.Error("out-of-range fragment accepted")
	}
}

// TestPlanGenAlwaysValid pins the sampler's contract with the engine:
// every generated plan validates, and JoinProb 0 degenerates to the
// single-scan plan carrying exactly the query's sampled demands.
func TestPlanGenAlwaysValid(t *testing.T) {
	cfgs := []PlanGenConfig{
		{JoinProb: 1, FilterProb: 1, SelScan: 0.5, SelJoin: 0.25, JoinPageCPU: 0.1, FilterPageCPU: 0.02, ShipBytesPerPage: 0.05, NumFrags: 8},
		{JoinProb: 0.5, FilterProb: 0.3, SelScan: 2, SelJoin: 0.1, ShipBytesPerPage: 1},
		{JoinProb: 1, SelScan: 0.01, SelJoin: 0.01, NumFrags: 1},
		{JoinProb: 1, SelScan: 0.3, SelJoin: 0.5, NumFrags: 8, HotProb: 0.5},
	}
	for ci, cfg := range cfgs {
		gen, err := NewPlanGen(cfg, rng.NewStream(7).Child(12))
		if err != nil {
			t.Fatal(err)
		}
		numFrags := cfg.NumFrags
		for i := 0; i < 300; i++ {
			q := &Query{ReadsTotal: 1 + i%40, Object: i % max(1, numFrags)}
			p := gen.New(q, 20)
			if err := p.Validate(numFrags, 6); err != nil {
				t.Fatalf("cfg %d: generated plan invalid: %v\n%+v", ci, err, p)
			}
		}
	}
	gen, err := NewPlanGen(PlanGenConfig{JoinProb: 0}, rng.NewStream(7).Child(12))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{ReadsTotal: 23, Object: 3}
	p := gen.New(q, 20)
	if len(p.Ops) != 1 || p.Ops[0].Kind != OpScan || p.Ops[0].Reads != 23 || p.Ops[0].Frag != 3 {
		t.Fatalf("JoinProb 0 plan = %+v, want the monolithic single scan", p)
	}
	if _, err := NewPlanGen(PlanGenConfig{}, nil); err == nil {
		t.Error("nil stream accepted")
	}
}

// TestPlanGenHotPair pins the hot-spot skew: at HotProb 1 every join
// tree reads the hot pair (fragment 0 left, fragment 1 right) and moves
// its query to fragment 0, while single-scan plans keep their object.
func TestPlanGenHotPair(t *testing.T) {
	gen, err := NewPlanGen(PlanGenConfig{JoinProb: 0.5, SelScan: 0.3, SelJoin: 0.5, NumFrags: 8, HotProb: 1},
		rng.NewStream(3).Child(12))
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for i := 0; i < 200; i++ {
		q := &Query{ReadsTotal: 20, Object: 2 + i%6}
		obj := q.Object
		p := gen.New(q, 20)
		if len(p.Ops) == 1 {
			if q.Object != obj || p.Ops[0].Frag != obj {
				t.Fatalf("single scan moved off object %d: query %d, scan %d", obj, q.Object, p.Ops[0].Frag)
			}
			continue
		}
		joins++
		if q.Object != 0 || p.Ops[0].Frag != 0 || p.Ops[1].Frag != 1 {
			t.Fatalf("hot join reads fragments %d/%d with query object %d, want 0/1 and 0",
				p.Ops[0].Frag, p.Ops[1].Frag, q.Object)
		}
	}
	if joins == 0 {
		t.Fatal("no join trees sampled")
	}
}
