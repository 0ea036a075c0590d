package approx

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/geo"
	"repro/internal/rtree"
	"repro/internal/storage"
)

type instance struct {
	providers []core.Provider
	items     []rtree.Item
	tree      *rtree.Tree
}

func genInstance(t *testing.T, nq, nc, k int, seed int64) *instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	providers := make([]core.Provider, nq)
	for i := range providers {
		providers[i] = core.Provider{
			Pt:  geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Cap: k,
		}
	}
	items := make([]rtree.Item, nc)
	centers := make([]geo.Point, 4)
	for i := range centers {
		centers[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	for i := range items {
		var pt geo.Point
		if rng.Float64() < 0.8 {
			c := centers[rng.Intn(len(centers))]
			pt = geo.Point{
				X: clamp(c.X+rng.NormFloat64()*50, 0, 1000),
				Y: clamp(c.Y+rng.NormFloat64()*50, 0, 1000),
			}
		} else {
			pt = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		items[i] = rtree.Item{ID: int64(i), Pt: pt}
	}
	tree, err := rtree.Bulk(storage.NewBuffer(storage.NewMemStore(1024), 1024), items)
	if err != nil {
		t.Fatal(err)
	}
	return &instance{providers: providers, items: items, tree: tree}
}

func clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

func (in *instance) optimal() float64 {
	customers := make([]flowgraph.Customer, len(in.items))
	for i, it := range in.items {
		customers[i] = flowgraph.Customer{Pt: it.Pt, Cap: 1, ExtID: it.ID}
	}
	fp := make([]flowgraph.Provider, len(in.providers))
	for i, p := range in.providers {
		fp[i] = flowgraph.Provider{Pt: p.Pt, Cap: p.Cap}
	}
	_, cost := flowgraph.RefSolve(fp, customers)
	return cost
}

func (in *instance) gamma() int {
	total := 0
	for _, p := range in.providers {
		total += p.Cap
	}
	if len(in.items) < total {
		return len(in.items)
	}
	return total
}

// checkValidApprox verifies matching validity: full size, unique
// customers, capacities respected.
func checkValidApprox(t *testing.T, in *instance, res *Result) {
	t.Helper()
	if res.Size != in.gamma() {
		t.Fatalf("matching size %d want γ=%d", res.Size, in.gamma())
	}
	used := make([]int, len(in.providers))
	seen := make(map[int64]bool)
	sum := 0.0
	for _, p := range res.Pairs {
		if seen[p.CustomerID] {
			t.Fatalf("customer %d assigned twice", p.CustomerID)
		}
		seen[p.CustomerID] = true
		used[p.Provider]++
		sum += p.Dist
		// Reported distance must equal the actual geometry.
		want := in.providers[p.Provider].Pt.Dist(in.items[p.CustomerID].Pt)
		if math.Abs(p.Dist-want) > 1e-9 {
			t.Fatalf("pair distance %v does not match geometry %v", p.Dist, want)
		}
	}
	for q, u := range used {
		if u > in.providers[q].Cap {
			t.Fatalf("provider %d over capacity: %d > %d", q, u, in.providers[q].Cap)
		}
	}
	if math.Abs(sum-res.Cost) > 1e-6 {
		t.Fatalf("Cost %v != pair sum %v", res.Cost, sum)
	}
}

// Both approximations, with both refinements, must produce valid
// matchings within their theoretical error bounds (Theorems 3 and 4).
func TestApproxWithinBounds(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := genInstance(t, 6, 120, 15, 400+seed)
		opt := in.optimal()
		gamma := in.gamma()
		for _, tc := range []struct {
			name  string
			run   func(Options) (*Result, error)
			delta float64
			bound float64
		}{
			{"SA/NN", func(o Options) (*Result, error) { return SA(in.providers, in.tree, o) }, 60, SABound(gamma, 60)},
			{"SA/excl", func(o Options) (*Result, error) {
				o.Refinement = RefineExclusive
				return SA(in.providers, in.tree, o)
			}, 60, SABound(gamma, 60)},
			{"CA/NN", func(o Options) (*Result, error) { return CA(in.providers, in.tree, o) }, 30, CABound(gamma, 30)},
			{"CA/excl", func(o Options) (*Result, error) {
				o.Refinement = RefineExclusive
				return CA(in.providers, in.tree, o)
			}, 30, CABound(gamma, 30)},
		} {
			res, err := tc.run(Options{Delta: tc.delta})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			checkValidApprox(t, in, res)
			if res.Cost < opt-1e-6 {
				t.Fatalf("%s seed %d: approximate cost %v beats optimum %v", tc.name, seed, res.Cost, opt)
			}
			if res.Cost > opt+tc.bound+1e-6 {
				t.Fatalf("%s seed %d: error %v exceeds bound %v",
					tc.name, seed, res.Cost-opt, tc.bound)
			}
			if math.Abs(res.ErrorBound-tc.bound) > 1e-9 {
				t.Fatalf("%s: reported bound %v want %v", tc.name, res.ErrorBound, tc.bound)
			}
		}
	}
}

// Shrinking δ must (weakly) improve CA's accuracy and drive it toward
// the optimum — Figure 14's trend.
func TestDeltaControlsAccuracy(t *testing.T) {
	in := genInstance(t, 5, 200, 20, 17)
	opt := in.optimal()
	prevQuality := math.Inf(1)
	improvedOnce := false
	for _, delta := range []float64{160, 40, 5} {
		res, err := CA(in.providers, in.tree, Options{Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		quality := res.Cost / opt
		if quality < 1-1e-9 {
			t.Fatalf("quality below 1: %v", quality)
		}
		// Allow small non-monotonicity (heuristic refinement) but demand
		// overall improvement from the coarsest to the finest δ.
		if quality < prevQuality-1e-9 {
			improvedOnce = true
		}
		prevQuality = quality
	}
	if !improvedOnce && prevQuality > 1.01 {
		t.Fatalf("accuracy never improved as δ shrank (final quality %v)", prevQuality)
	}
	// δ=5 should be near-optimal on this instance.
	if prevQuality > 1.30 {
		t.Fatalf("CA at δ=5 is far from optimal: quality %v", prevQuality)
	}
}

// SA groups respect δ: verify the partition helper directly.
func TestHilbertGroupsRespectDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := make([]geo.Point, 500)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	const delta = 75.0
	groups := hilbertGroups(pts, core.DefaultSpace, delta)
	seen := make(map[int]bool)
	for _, g := range groups {
		if g.mbr.Diagonal() > delta+1e-9 {
			t.Fatalf("group diagonal %v exceeds δ", g.mbr.Diagonal())
		}
		for _, m := range g.members {
			if seen[m] {
				t.Fatalf("point %d in two groups", m)
			}
			seen[m] = true
			if !g.mbr.Contains(pts[m]) {
				t.Fatalf("member outside group MBR")
			}
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("groups cover %d of %d points", len(seen), len(pts))
	}
}

// CA partitioning must cover every point exactly once with δ-bounded
// parts.
func TestCAPartitionCoversP(t *testing.T) {
	in := genInstance(t, 1, 800, 1, 31)
	const delta = 50.0
	parts, err := caPartition(in.tree, delta)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		if p.mbr.Diagonal() > delta+1e-9 {
			t.Fatalf("part diagonal %v exceeds δ", p.mbr.Diagonal())
		}
		total += p.count
	}
	if total != 800 {
		t.Fatalf("parts cover %d of 800 points", total)
	}
	// Merged groups must also respect δ and preserve the count.
	groups := caMerge(parts, core.DefaultSpace, delta)
	total = 0
	for _, g := range groups {
		if g.mbr.Diagonal() > delta+1e-9 {
			t.Fatalf("group diagonal %v exceeds δ", g.mbr.Diagonal())
		}
		total += g.count
	}
	if total != 800 {
		t.Fatalf("groups cover %d of 800 points", total)
	}
	if len(groups) > len(parts) {
		t.Fatalf("merge increased the entry count: %d > %d", len(groups), len(parts))
	}
}

// Tiny δ forces conceptual leaf splits; the pipeline must stay correct.
func TestCAConceptualLeafSplit(t *testing.T) {
	in := genInstance(t, 3, 150, 10, 47)
	res, err := CA(in.providers, in.tree, Options{Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkValidApprox(t, in, res)
	// δ=2 is nearly exact.
	opt := in.optimal()
	if res.Cost > opt+CABound(in.gamma(), 2)+1e-6 {
		t.Fatalf("tiny-δ CA error %v exceeds bound", res.Cost-opt)
	}
}

// A coordinate whose float64 spacing exceeds δ (ulp(1e17) = 16 > the
// default δ = 10) used to send splitConceptual into unbounded recursion
// and a fatal stack overflow. The unshrinkable rectangle is now one
// part, every customer is still assigned, and the reported bound covers
// the part's real diagonal.
func TestCASplitStopsAtFloatSpacing(t *testing.T) {
	items := []rtree.Item{
		{ID: 0, Pt: geo.Point{X: 0, Y: 0}},
		{ID: 1, Pt: geo.Point{X: 3, Y: 4}},
		{ID: 2, Pt: geo.Point{X: 1e17, Y: 0}},
		{ID: 3, Pt: geo.Point{X: 1e17 + 16, Y: 8}},
	}
	tree, err := memTree(items)
	if err != nil {
		t.Fatal(err)
	}
	providers := []core.Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 2}, {Pt: geo.Point{X: 1e17, Y: 0}, Cap: 2}}
	res, err := CA(providers, tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 4 || len(res.Pairs) != 4 {
		t.Fatalf("assigned %d of 4 customers", res.Size)
	}
	seen := map[int64]bool{}
	for _, p := range res.Pairs {
		if seen[p.CustomerID] {
			t.Fatalf("customer %d assigned twice", p.CustomerID)
		}
		seen[p.CustomerID] = true
	}
	if res.ErrorBound < CABound(res.Size, math.Hypot(16, 8)) {
		t.Fatalf("error bound %v does not cover the unsplittable part's diagonal", res.ErrorBound)
	}
}

// The refinement heuristics must respect budgets and assign min(|P”|,
// Σbudgets) customers.
func TestRefinementBudgets(t *testing.T) {
	providers := []core.Provider{
		{Pt: geo.Point{X: 0, Y: 0}, Cap: 99},
		{Pt: geo.Point{X: 100, Y: 0}, Cap: 99},
	}
	customers := []rtree.Item{
		{ID: 0, Pt: geo.Point{X: 1, Y: 0}},
		{ID: 1, Pt: geo.Point{X: 2, Y: 0}},
		{ID: 2, Pt: geo.Point{X: 99, Y: 0}},
		{ID: 3, Pt: geo.Point{X: 98, Y: 0}},
	}
	for _, method := range []Refinement{RefineNN, RefineExclusive} {
		var out []core.Pair
		refine(method, geo.Euclidean, providers, []int{2, 2}, customers, &out)
		if len(out) != 4 {
			t.Fatalf("%v: assigned %d of 4", method, len(out))
		}
		counts := map[int]int{}
		for _, p := range out {
			counts[p.Provider]++
		}
		if counts[0] != 2 || counts[1] != 2 {
			t.Fatalf("%v: budgets violated: %v", method, counts)
		}
		// Sensible geometry: customers 0,1 to provider 0; 2,3 to 1.
		for _, p := range out {
			if (p.CustomerID <= 1) != (p.Provider == 0) {
				t.Fatalf("%v: customer %d went to provider %d", method, p.CustomerID, p.Provider)
			}
		}
	}
	// Budget smaller than customer count leaves the excess unassigned.
	var out []core.Pair
	refine(RefineNN, geo.Euclidean, providers, []int{1, 0}, customers, &out)
	if len(out) != 1 {
		t.Fatalf("limited budget: assigned %d want 1", len(out))
	}
}

func TestRefinementStrings(t *testing.T) {
	if RefineNN.String() != "NN" || RefineExclusive.String() != "exclusive-NN" {
		t.Fatal("refinement names changed")
	}
	if Refinement(9).String() == "" {
		t.Fatal("unknown refinement must still print")
	}
}

// CA on an empty tree and SA with no providers must not panic.
func TestApproxDegenerate(t *testing.T) {
	tree, err := rtree.Bulk(storage.NewBuffer(storage.NewMemStore(1024), 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	providers := []core.Provider{{Pt: geo.Point{X: 1, Y: 1}, Cap: 5}}
	if res, err := CA(providers, tree, Options{}); err != nil || res.Size != 0 {
		t.Fatalf("CA empty: %v %+v", err, res)
	}
	if res, err := SA(providers, tree, Options{}); err != nil || res.Size != 0 {
		t.Fatalf("SA empty: %v %+v", err, res)
	}
}

// All refinements must fill CustomerPt (regression: heuristics used to
// leave it zero).
func TestRefinementsFillCustomerPt(t *testing.T) {
	in := genInstance(t, 4, 60, 8, 613)
	for _, method := range []Refinement{RefineNN, RefineExclusive} {
		for _, run := range []func() (*Result, error){
			func() (*Result, error) { return CA(in.providers, in.tree, Options{Delta: 30, Refinement: method}) },
			func() (*Result, error) { return SA(in.providers, in.tree, Options{Delta: 50, Refinement: method}) },
		} {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Pairs {
				if p.CustomerPt != in.items[p.CustomerID].Pt {
					t.Fatalf("%v: CustomerPt %v != actual %v", method, p.CustomerPt, in.items[p.CustomerID].Pt)
				}
			}
		}
	}
}
