package flowgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

// runSSPA drives the graph like the SSPA baseline: γ iterations of
// search + augment over the complete bipartite graph.
func runSSPA(t *testing.T, providers []Provider, customers []Customer) *Graph {
	t.Helper()
	g := NewGraph(providers, true)
	for _, c := range customers {
		g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
	}
	custCap := 0
	for _, c := range customers {
		custCap += c.Cap
	}
	gamma := g.TotalCapacity()
	if custCap < gamma {
		gamma = custCap
	}
	for i := 0; i < gamma; i++ {
		g.BeginIteration()
		if _, _, ok := g.Search(); !ok {
			t.Fatalf("iteration %d: no augmenting path", i)
		}
		if err := g.Augment(); err != nil {
			t.Fatal(err)
		}
		if err := g.CheckReducedCosts(1e-9); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	return g
}

// TestPaperFigure2Example reproduces the worked SSPA example of Figures
// 2–3: P = {p1,p2}, Q = {q1 (k=1), q2 (k=2)}, distances q1p1=4, q1p2=3,
// q2p1=10, q2p2=7. Iteration 1 finds sp1 = {s,q1,p2,t} (cost 3);
// iteration 2 finds sp2 = {s,q2,p2,q1,p1,t} which reroutes p2 from q1 to
// q2, yielding the optimal matching {(q1,p1),(q2,p2)} with cost 4+7=11.
func TestPaperFigure2Example(t *testing.T) {
	// Coordinates engineered to produce the paper's pairwise distances.
	// With q1=(0,0), p1=(4,0), p2=(-3,0) we have q1p1=4, q1p2=3; place
	// q2=(x,y) so that q2p1=10 and q2p2=7:
	//   (x-4)²+y²=100 and (x+3)²+y²=49  =>  -14x+7=51  =>  x=-22/7,
	//   y² = 49-(-22/7+3)² = 49-1/49 = 2400/49.
	q2 := geo.Point{X: -22.0 / 7, Y: math.Sqrt(2400) / 7}
	providers := []Provider{
		{Pt: geo.Point{X: 0, Y: 0}, Cap: 1}, // q1
		{Pt: q2, Cap: 2},                    // q2
	}
	customers := []Customer{
		{Pt: geo.Point{X: 4, Y: 0}, Cap: 1, ExtID: 1},  // p1
		{Pt: geo.Point{X: -3, Y: 0}, Cap: 1, ExtID: 2}, // p2
	}
	// Sanity-check the engineered distances.
	if d := providers[0].Pt.Dist(customers[0].Pt); math.Abs(d-4) > 1e-9 {
		t.Fatalf("dist(q1,p1) = %v", d)
	}
	if d := providers[0].Pt.Dist(customers[1].Pt); math.Abs(d-3) > 1e-9 {
		t.Fatalf("dist(q1,p2) = %v", d)
	}
	if d := providers[1].Pt.Dist(customers[0].Pt); math.Abs(d-10) > 1e-9 {
		t.Fatalf("dist(q2,p1) = %v", d)
	}
	if d := providers[1].Pt.Dist(customers[1].Pt); math.Abs(d-7) > 1e-9 {
		t.Fatalf("dist(q2,p2) = %v", d)
	}

	g := NewGraph(providers, true)
	for _, c := range customers {
		g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
	}

	// Iteration 1: sp1 = {s, q1, p2, t} with cost 3.
	g.BeginIteration()
	vmin, cost, ok := g.Search()
	if !ok || math.Abs(cost-3) > 1e-9 {
		t.Fatalf("sp1 cost = %v ok=%v, want 3", cost, ok)
	}
	if g.custIdx(vmin) != 1 {
		t.Fatalf("sp1 should end at p2, got customer %d", g.custIdx(vmin))
	}
	if err := g.Augment(); err != nil {
		t.Fatal(err)
	}
	// Paper: after sp1, τ(s)=τ(q1)=τ(q2)=3 (all visited at α=0).
	if math.Abs(g.sTau-3) > 1e-9 || math.Abs(g.tau[0]-3) > 1e-9 || math.Abs(g.tau[1]-3) > 1e-9 {
		t.Fatalf("potentials after sp1: s=%v q1=%v q2=%v, want all 3", g.sTau, g.tau[0], g.tau[1])
	}
	if math.Abs(g.TauMax()-3) > 1e-9 {
		t.Fatalf("tauMax = %v want 3", g.TauMax())
	}

	// Iteration 2: sp2 = {s, q2, p2, q1, p1, t}. In reduced costs:
	// w(s,q2)=0, w(q2,p2)=7-3+0=4, w(p2,q1)=-3-0+3=0, w(q1,p1)=4-3+0=1,
	// so vmin.α = 5 (original edge-length cost 7-3+4 = 8).
	g.BeginIteration()
	vmin, cost, ok = g.Search()
	if !ok {
		t.Fatal("sp2 not found")
	}
	if g.custIdx(vmin) != 0 {
		t.Fatalf("sp2 should end at p1, got customer %d", g.custIdx(vmin))
	}
	if math.Abs(cost-5) > 1e-9 {
		t.Fatalf("sp2 reduced cost = %v want 5", cost)
	}
	if err := g.Augment(); err != nil {
		t.Fatal(err)
	}

	// Final matching: (q1,p1), (q2,p2), total cost 4+7 = 11.
	pairs := g.Pairs()
	if len(pairs) != 2 {
		t.Fatalf("matching size %d want 2", len(pairs))
	}
	if math.Abs(g.Cost()-11) > 1e-9 {
		t.Fatalf("Ψ(M) = %v want 11", g.Cost())
	}
	for _, pr := range pairs {
		if pr.Customer == 0 && pr.Provider != 0 {
			t.Errorf("p1 assigned to q%d want q1", pr.Provider+1)
		}
		if pr.Customer == 1 && pr.Provider != 1 {
			t.Errorf("p2 assigned to q%d want q2", pr.Provider+1)
		}
	}
}

func randProviders(n int, capFn func(i int) int, rng *rand.Rand) []Provider {
	out := make([]Provider, n)
	for i := range out {
		out[i] = Provider{
			Pt:  geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Cap: capFn(i),
		}
	}
	return out
}

func randCustomers(n int, rng *rand.Rand) []Customer {
	out := make([]Customer, n)
	for i := range out {
		out[i] = Customer{
			Pt:    geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Cap:   1,
			ExtID: int64(i),
		}
	}
	return out
}

// The potential-based SSPA must match the Bellman–Ford reference on
// random instances, across under-, exactly-, and over-capacitated mixes.
func TestSSPAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		nq := 2 + rng.Intn(5)
		nc := 1 + rng.Intn(25)
		k := 1 + rng.Intn(6)
		providers := randProviders(nq, func(int) int { return k }, rng)
		customers := randCustomers(nc, rng)

		g := runSSPA(t, providers, customers)
		_, wantCost := RefSolve(providers, customers)
		if math.Abs(g.Cost()-wantCost) > 1e-6*(1+wantCost) {
			t.Fatalf("trial %d (nq=%d nc=%d k=%d): cost %v want %v",
				trial, nq, nc, k, g.Cost(), wantCost)
		}
		wantSize := nq * k
		if nc < wantSize {
			wantSize = nc
		}
		if g.AssignedCount() != wantSize {
			t.Fatalf("trial %d: matching size %d want %d", trial, g.AssignedCount(), wantSize)
		}
	}
}

// Matching validity: no provider exceeds its capacity, no customer its
// capacity, and no (q,p) pair repeats.
func TestMatchingValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nq := 1 + rng.Intn(6)
		nc := 1 + rng.Intn(30)
		providers := randProviders(nq, func(int) int { return 1 + rng.Intn(5) }, rng)
		customers := randCustomers(nc, rng)
		g := runSSPA(t, providers, customers)

		provCount := make(map[int]int)
		custCount := make(map[int]int)
		pairSeen := make(map[[2]int]bool)
		for _, pr := range g.Pairs() {
			provCount[pr.Provider]++
			custCount[pr.Customer]++
			key := [2]int{pr.Provider, pr.Customer}
			if pairSeen[key] {
				return false
			}
			pairSeen[key] = true
		}
		for q, n := range provCount {
			if n > providers[q].Cap {
				return false
			}
		}
		for c, n := range custCount {
			if n > customers[c].Cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Customer capacities > 1 (the CA concise-matching configuration) must
// also be optimal vs the reference.
func TestCustomerCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		nq := 2 + rng.Intn(4)
		nc := 1 + rng.Intn(8)
		providers := randProviders(nq, func(int) int { return 1 + rng.Intn(4) }, rng)
		customers := randCustomers(nc, rng)
		for i := range customers {
			customers[i].Cap = 1 + rng.Intn(4)
		}
		g := NewGraph(providers, true)
		for _, c := range customers {
			g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
		}
		// With per-pair capacity 1, the max matching can be smaller than
		// min(Σ q.k, Σ p.cap): a customer can hold at most one instance
		// per provider. Augment until no path remains (max flow).
		for {
			g.BeginIteration()
			if _, _, ok := g.Search(); !ok {
				break
			}
			if err := g.Augment(); err != nil {
				t.Fatal(err)
			}
		}
		wantPairs, wantCost := RefSolve(providers, customers)
		if math.Abs(g.Cost()-wantCost) > 1e-6*(1+wantCost) {
			t.Fatalf("trial %d: cost %v want %v", trial, g.Cost(), wantCost)
		}
		if g.AssignedCount() != len(wantPairs) {
			t.Fatalf("trial %d: size %d want %d", trial, g.AssignedCount(), len(wantPairs))
		}
	}
}

// Incremental mode with PUA: insert edges one by one in ascending length
// (as NIA does) and verify the final matching is still optimal.
func TestIncrementalWithPUAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		nq := 2 + rng.Intn(4)
		nc := 2 + rng.Intn(15)
		k := 1 + rng.Intn(3)
		providers := randProviders(nq, func(int) int { return k }, rng)
		customers := randCustomers(nc, rng)

		g := NewGraph(providers, false)
		for _, c := range customers {
			g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
		}
		// All candidate edges sorted ascending by length (a NIA-style
		// discovery order).
		type cand struct {
			q, c int32
			d    float64
		}
		var cands []cand
		for q := 0; q < nq; q++ {
			for c := 0; c < nc; c++ {
				cands = append(cands, cand{int32(q), int32(c),
					providers[q].Pt.Dist(customers[c].Pt)})
			}
		}
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].d < cands[j-1].d; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		gamma := nq * k
		if nc < gamma {
			gamma = nc
		}
		next := 0
		for done := 0; done < gamma; done++ {
			g.BeginIteration()
			for {
				_, cost, ok := g.Search()
				// The NIA validity bound: remaining undiscovered edges
				// all have length >= cands[next].d.
				bound := math.Inf(1)
				if next < len(cands) {
					bound = cands[next].d
				}
				if ok && cost <= bound-g.TauMax()+1e-12 {
					break
				}
				if next >= len(cands) {
					t.Fatalf("trial %d: ran out of edges", trial)
				}
				g.InsertEdgeAndRepair(cands[next].q, cands[next].c, cands[next].d)
				next++
			}
			if err := g.Augment(); err != nil {
				t.Fatal(err)
			}
			if err := g.CheckReducedCosts(1e-9); err != nil {
				t.Fatalf("trial %d after augment %d: %v", trial, done, err)
			}
		}
		_, wantCost := RefSolve(providers, customers)
		if math.Abs(g.Cost()-wantCost) > 1e-6*(1+wantCost) {
			t.Fatalf("trial %d: incremental cost %v want %v (|Esub|=%d of %d)",
				trial, g.Cost(), wantCost, g.EdgeCount(), len(cands))
		}
		if g.EdgeCount() >= len(cands) && nq*nc > gamma+2 {
			t.Logf("trial %d: no pruning achieved (|Esub|=%d)", trial, g.EdgeCount())
		}
	}
}

// Theorem 2 fast path: DirectAssign + LeaveFastPhase must leave the graph
// in a state where subsequent Dijkstra searches still find the optimum.
func TestFastPhaseHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		nq := 2 + rng.Intn(3)
		nc := 4 + rng.Intn(12)
		k := 1 + rng.Intn(2)
		providers := randProviders(nq, func(int) int { return k }, rng)
		customers := randCustomers(nc, rng)

		g := NewGraph(providers, false)
		for _, c := range customers {
			g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
		}
		type cand struct {
			q, c int32
			d    float64
		}
		var cands []cand
		for q := 0; q < nq; q++ {
			for c := 0; c < nc; c++ {
				cands = append(cands, cand{int32(q), int32(c), providers[q].Pt.Dist(customers[c].Pt)})
			}
		}
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].d < cands[j-1].d; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		gamma := nq * k
		if nc < gamma {
			gamma = nc
		}

		// Fast phase: IDA's Theorem 2 regime — pop ascending edges,
		// skip full customers, assign non-full ones directly, until a
		// provider fills up.
		next := 0
		done := 0
		lastLen := 0.0
		for done < gamma {
			if next >= len(cands) {
				break
			}
			e := cands[next]
			next++
			g.AddEdge(e.q, e.c, e.d)
			if g.ProviderFull(e.q) || g.CustomerFull(e.c) {
				continue
			}
			g.DirectAssign(e.q, e.c, e.d)
			lastLen = e.d
			done++
			if g.ProviderFull(e.q) {
				break // leave the Theorem 2 regime
			}
		}
		g.LeaveFastPhase(lastLen)
		if err := g.CheckReducedCosts(1e-9); err != nil {
			t.Fatalf("trial %d after fast phase: %v", trial, err)
		}

		// Finish with Dijkstra iterations (NIA-style with validity bound).
		for ; done < gamma; done++ {
			g.BeginIteration()
			for {
				_, cost, ok := g.Search()
				bound := math.Inf(1)
				if next < len(cands) {
					bound = cands[next].d
				}
				if ok && cost <= bound-g.TauMax()+1e-12 {
					break
				}
				if next >= len(cands) {
					t.Fatalf("trial %d: out of edges", trial)
				}
				g.InsertEdgeAndRepair(cands[next].q, cands[next].c, cands[next].d)
				next++
			}
			if err := g.Augment(); err != nil {
				t.Fatal(err)
			}
		}
		_, wantCost := RefSolve(providers, customers)
		if math.Abs(g.Cost()-wantCost) > 1e-6*(1+wantCost) {
			t.Fatalf("trial %d: fast-phase cost %v want %v", trial, g.Cost(), wantCost)
		}
	}
}

// Degenerate inputs.
func TestDegenerateInstances(t *testing.T) {
	t.Run("no customers", func(t *testing.T) {
		g := NewGraph([]Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 2}}, true)
		g.BeginIteration()
		if _, _, ok := g.Search(); ok {
			t.Fatal("no customers: search must fail")
		}
	})
	t.Run("coincident points", func(t *testing.T) {
		providers := []Provider{
			{Pt: geo.Point{X: 5, Y: 5}, Cap: 1},
			{Pt: geo.Point{X: 5, Y: 5}, Cap: 1},
		}
		customers := []Customer{
			{Pt: geo.Point{X: 5, Y: 5}, Cap: 1, ExtID: 0},
			{Pt: geo.Point{X: 5, Y: 5}, Cap: 1, ExtID: 1},
		}
		g := runSSPA(t, providers, customers)
		if g.Cost() != 0 || g.AssignedCount() != 2 {
			t.Fatalf("coincident: cost %v size %d", g.Cost(), g.AssignedCount())
		}
	})
	t.Run("one of each", func(t *testing.T) {
		providers := []Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 5}}
		customers := []Customer{{Pt: geo.Point{X: 3, Y: 4}, Cap: 1, ExtID: 9}}
		g := runSSPA(t, providers, customers)
		if math.Abs(g.Cost()-5) > 1e-9 {
			t.Fatalf("cost %v want 5", g.Cost())
		}
		pairs := g.Pairs()
		if len(pairs) != 1 || pairs[0].CustID != 9 {
			t.Fatalf("pairs %+v", pairs)
		}
	})
}

// Greedy (Voronoi) assignment is not optimal under capacity constraints:
// the flow-based matching must beat it on the paper's Figure 1 style of
// instance (a cluster overloading its closest provider).
func TestBeatsGreedyOnOverload(t *testing.T) {
	providers := []Provider{
		{Pt: geo.Point{X: 0, Y: 0}, Cap: 1},
		{Pt: geo.Point{X: 10, Y: 0}, Cap: 2},
	}
	// Two customers right next to q1; greedy would want both on q1.
	customers := []Customer{
		{Pt: geo.Point{X: 0, Y: 1}, Cap: 1, ExtID: 0},
		{Pt: geo.Point{X: 1, Y: 0}, Cap: 1, ExtID: 1},
	}
	g := runSSPA(t, providers, customers)
	// Optimal: p1->q1 (1), p2->q2 (9); or p2->q1 (1), p1->q2 (sqrt(101)).
	want := 1 + 9.0
	if math.Abs(g.Cost()-want) > 1e-9 {
		t.Fatalf("cost %v want %v", g.Cost(), want)
	}
	// Both providers within capacity.
	used := map[int]int{}
	for _, pr := range g.Pairs() {
		used[pr.Provider]++
	}
	if used[0] > 1 || used[1] > 2 {
		t.Fatalf("capacity violated: %v", used)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	providers := randProviders(3, func(int) int { return 2 }, rng)
	customers := randCustomers(10, rng)
	g := runSSPA(t, providers, customers)
	st := g.Stats()
	if st.Dijkstras != 6 {
		t.Fatalf("Dijkstras = %d want 6 (γ iterations)", st.Dijkstras)
	}
	if st.Pops == 0 || st.Relaxations == 0 {
		t.Fatalf("missing work counters: %+v", st)
	}
}
