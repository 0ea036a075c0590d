package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/flowgraph"
	"repro/internal/geo"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// instance is a random CCA problem plus its R-tree.
type instance struct {
	providers []Provider
	items     []rtree.Item
	tree      *rtree.Tree
	buf       *storage.Buffer
}

// genInstance builds a clustered instance reminiscent of §5.1: most
// customers in a few dense clusters, the rest uniform.
func genInstance(t *testing.T, nq, nc, k int, seed int64) *instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	providers := make([]Provider, nq)
	for i := range providers {
		providers[i] = Provider{
			Pt:  geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Cap: k,
		}
	}
	items := make([]rtree.Item, nc)
	nClusters := 4
	centers := make([]geo.Point, nClusters)
	for i := range centers {
		centers[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	for i := range items {
		var pt geo.Point
		if rng.Float64() < 0.8 {
			c := centers[rng.Intn(nClusters)]
			pt = geo.Point{
				X: clamp(c.X+rng.NormFloat64()*40, 0, 1000),
				Y: clamp(c.Y+rng.NormFloat64()*40, 0, 1000),
			}
		} else {
			pt = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		items[i] = rtree.Item{ID: int64(i), Pt: pt}
	}
	buf := storage.NewBuffer(storage.NewMemStore(1024), 256)
	tree, err := rtree.Bulk(buf, items)
	if err != nil {
		t.Fatal(err)
	}
	return &instance{providers: providers, items: items, tree: tree, buf: buf}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// refCost computes the optimal cost with the independent oracle.
func (in *instance) refCost() float64 {
	customers := make([]flowgraph.Customer, len(in.items))
	for i, it := range in.items {
		customers[i] = flowgraph.Customer{Pt: it.Pt, Cap: 1, ExtID: it.ID}
	}
	_, cost := flowgraph.RefSolve(flowProviders(in.providers), customers)
	return cost
}

func checkValid(t *testing.T, in *instance, res *Result, wantSize int) {
	t.Helper()
	if res.Size != wantSize {
		t.Fatalf("matching size %d want %d", res.Size, wantSize)
	}
	provUsed := make([]int, len(in.providers))
	custSeen := make(map[int64]bool)
	sum := 0.0
	for _, p := range res.Pairs {
		provUsed[p.Provider]++
		if custSeen[p.CustomerID] {
			t.Fatalf("customer %d assigned twice", p.CustomerID)
		}
		custSeen[p.CustomerID] = true
		sum += p.Dist
	}
	for q, u := range provUsed {
		if u > in.providers[q].Cap {
			t.Fatalf("provider %d over capacity: %d > %d", q, u, in.providers[q].Cap)
		}
	}
	if math.Abs(sum-res.Cost) > 1e-6 {
		t.Fatalf("Cost field %v does not match pair sum %v", res.Cost, sum)
	}
}

// All exact algorithms, under every optimization toggle, must equal the
// oracle's optimal cost.
func TestExactAlgorithmsOptimal(t *testing.T) {
	cases := []struct {
		name      string
		nq, nc, k int
	}{
		{"under-capacitated", 4, 60, 5}, // k·|Q| < |P|: providers fill up
		{"over-capacitated", 4, 30, 10}, // k·|Q| > |P|: customers run out
		{"exact fit", 3, 30, 10},
		{"single provider", 1, 25, 10},
		{"k=1 matching", 6, 40, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				in := genInstance(t, tc.nq, tc.nc, tc.k, 900+seed)
				want := in.refCost()
				gamma := tc.nq * tc.k
				if tc.nc < gamma {
					gamma = tc.nc
				}

				check := func(name string, res *Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkValid(t, in, res, gamma)
					if math.Abs(res.Cost-want) > 1e-6*(1+want) {
						t.Fatalf("%s seed %d: cost %v want %v", name, seed, res.Cost, want)
					}
				}

				sspaRes, sspaErr := SSPA(in.providers, in.items, Options{})
				check("SSPA", sspaRes, sspaErr)
				res, err := RIA(in.providers, in.tree, Options{Theta: 25})
				check("RIA", res, err)
				res, err = NIA(in.providers, in.tree, Options{})
				check("NIA", res, err)
				res, err = IDA(in.providers, in.tree, Options{})
				check("IDA", res, err)
				res, err = NIA(in.providers, in.tree, Options{DisablePUA: true, DisableANN: true})
				check("NIA-noPUA-noANN", res, err)
				res, err = IDA(in.providers, in.tree, Options{DisableTheorem2: true})
				check("IDA-noT2", res, err)
				res, err = IDA(in.providers, in.tree, Options{DisablePUA: true, DisableTheorem2: true, DisableANN: true})
				check("IDA-bare", res, err)
				res, err = IDA(in.providers, in.tree, Options{ANNGroupSize: 2})
				check("IDA-ann2", res, err)
			}
		})
	}
}

// Mixed capacities (Figure 12's configuration) must also be optimal.
func TestMixedCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 5; trial++ {
		in := genInstance(t, 5, 50, 1, int64(200+trial))
		total := 0
		for i := range in.providers {
			in.providers[i].Cap = 1 + rng.Intn(6)
			total += in.providers[i].Cap
		}
		want := in.refCost()
		gamma := total
		if len(in.items) < gamma {
			gamma = len(in.items)
		}
		for name, run := range map[string]func() (*Result, error){
			"RIA": func() (*Result, error) { return RIA(in.providers, in.tree, Options{Theta: 30}) },
			"NIA": func() (*Result, error) { return NIA(in.providers, in.tree, Options{}) },
			"IDA": func() (*Result, error) { return IDA(in.providers, in.tree, Options{}) },
		} {
			res, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkValid(t, in, res, gamma)
			if math.Abs(res.Cost-want) > 1e-6*(1+want) {
				t.Fatalf("%s trial %d: cost %v want %v", name, trial, res.Cost, want)
			}
		}
	}
}

// The incremental algorithms must explore far fewer edges than the
// complete bipartite graph (the point of Theorem 1).
func TestSubgraphPruning(t *testing.T) {
	in := genInstance(t, 8, 400, 10, 42)
	full := 8 * 400
	for name, run := range map[string]func() (*Result, error){
		"RIA": func() (*Result, error) { return RIA(in.providers, in.tree, Options{Theta: 25}) },
		"NIA": func() (*Result, error) { return NIA(in.providers, in.tree, Options{}) },
		"IDA": func() (*Result, error) { return IDA(in.providers, in.tree, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Metrics.SubgraphEdges >= full/2 {
			t.Errorf("%s explored %d of %d edges — pruning ineffective",
				name, res.Metrics.SubgraphEdges, full)
		}
		if res.Metrics.FullGraphEdges != full {
			t.Errorf("%s: FullGraphEdges = %d want %d", name, res.Metrics.FullGraphEdges, full)
		}
	}
}

// IDA must prune at least as well as NIA when providers fill up
// (k·|Q| < |P|, Figure 9's observation).
func TestIDAPrunesMoreThanNIA(t *testing.T) {
	in := genInstance(t, 6, 300, 8, 77) // 48 slots for 300 customers
	nia, err := NIA(in.providers, in.tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ida, err := IDA(in.providers, in.tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ida.Metrics.SubgraphEdges > nia.Metrics.SubgraphEdges {
		t.Errorf("IDA explored %d edges, NIA %d — expected IDA <= NIA",
			ida.Metrics.SubgraphEdges, nia.Metrics.SubgraphEdges)
	}
}

// With every q.k > |P| no provider can ever fill, so IDA's Theorem 2
// fast path must complete the entire matching without a Dijkstra run.
func TestIDATheorem2FastPath(t *testing.T) {
	in := genInstance(t, 4, 40, 41, 11) // no provider can fill
	res, err := IDA(in.providers, in.tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Dijkstras != 0 {
		t.Errorf("fast path should avoid Dijkstra entirely, ran %d", res.Metrics.Dijkstras)
	}
	if math.Abs(res.Cost-in.refCost()) > 1e-6 {
		t.Errorf("fast path cost %v want %v", res.Cost, in.refCost())
	}
}

// SMJoin is greedy: always valid and full-size, never cheaper than the
// optimum (and typically more expensive on clustered data).
func TestSMJoinGreedy(t *testing.T) {
	in := genInstance(t, 5, 100, 10, 13)
	res, err := SMJoin(in.providers, in.tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, in, res, 50)
	want := in.refCost()
	if res.Cost < want-1e-6 {
		t.Fatalf("greedy beat the optimum: %v < %v", res.Cost, want)
	}
}

// PUA must reduce Dijkstra work: with reuse on, the same matching is
// produced with fewer node finalizations.
func TestPUAReducesWork(t *testing.T) {
	in := genInstance(t, 6, 300, 8, 99)
	withPUA, err := NIA(in.providers, in.tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := NIA(in.providers, in.tree, Options{DisablePUA: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withPUA.Cost-without.Cost) > 1e-6 {
		t.Fatalf("PUA changed the result: %v vs %v", withPUA.Cost, without.Cost)
	}
	if withPUA.Metrics.Pops >= without.Metrics.Pops {
		t.Errorf("PUA did not reduce pops: %d vs %d",
			withPUA.Metrics.Pops, without.Metrics.Pops)
	}
}

// Customer-side capacities (used by the CA refinement) stay optimal.
func TestCustomerCapacitiesViaOptions(t *testing.T) {
	in := genInstance(t, 3, 12, 6, 55)
	caps := map[int64]int{}
	rng := rand.New(rand.NewSource(56))
	total := 0
	for _, it := range in.items {
		caps[it.ID] = 1 + rng.Intn(3)
		total += caps[it.ID]
	}
	opts := Options{
		CustomerCap:      func(id int64) int { return caps[id] },
		TotalCustomerCap: total,
	}
	res, err := IDA(in.providers, in.tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	customers := make([]flowgraph.Customer, len(in.items))
	for i, it := range in.items {
		customers[i] = flowgraph.Customer{Pt: it.Pt, Cap: caps[it.ID], ExtID: it.ID}
	}
	refPairs, refCost := flowgraph.RefSolve(flowProviders(in.providers), customers)
	if res.Size != len(refPairs) {
		t.Fatalf("size %d want %d", res.Size, len(refPairs))
	}
	if math.Abs(res.Cost-refCost) > 1e-6*(1+refCost) {
		t.Fatalf("cost %v want %v", res.Cost, refCost)
	}
}

// Empty edge cases.
func TestEmptyInputs(t *testing.T) {
	buf := storage.NewBuffer(storage.NewMemStore(1024), 16)
	tree, err := rtree.Bulk(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	providers := []Provider{{Pt: geo.Point{X: 1, Y: 1}, Cap: 3}}
	for name, run := range map[string]func() (*Result, error){
		"RIA": func() (*Result, error) { return RIA(providers, tree, Options{Theta: 100}) },
		"NIA": func() (*Result, error) { return NIA(providers, tree, Options{}) },
		"IDA": func() (*Result, error) { return IDA(providers, tree, Options{}) },
		"SM":  func() (*Result, error) { return SMJoin(providers, tree, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Size != 0 || res.Cost != 0 {
			t.Fatalf("%s on empty P: %+v", name, res)
		}
	}
	if res, err := SSPA(nil, nil, Options{}); err != nil || res.Size != 0 {
		t.Fatalf("SSPA with no providers: %+v", res)
	}
}

// I/O accounting: a disk-resident run must report faults and the 10ms
// cost model.
func TestIOMetrics(t *testing.T) {
	in := genInstance(t, 4, 500, 8, 7)
	in.buf.DropCache()
	res, err := IDA(in.providers, in.tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.IO.Faults == 0 {
		t.Fatal("expected page faults on a cold cache")
	}
	wantIO := res.Metrics.IO.IOTime()
	if res.Metrics.IOTime != wantIO {
		t.Fatalf("IOTime %v want %v", res.Metrics.IOTime, wantIO)
	}
	if res.Metrics.CPUTime <= 0 {
		t.Fatal("CPU time not recorded")
	}
}
