package flowgraph

import "testing"

// raceEnabled is set by race_test.go under -race, where sync.Pool reuse
// is deliberately defeated and allocation budgets cannot hold.
var raceEnabled bool

// TestAllocsGraphConstruction pins the pooled construction budget: once
// the pools are warm, building a graph, registering its customers and
// edges, and releasing it must not allocate per-customer or per-edge
// state — only the Graph header itself (and, rarely, a pool miss when
// GC clears the pools mid-run, hence the small slack). Before the
// graphArrays pool this sat at ~8 allocations per cycle just for the
// construction arrays, plus one per customer for the assignment lists.
func TestAllocsGraphConstruction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector")
	}
	providers, customers := benchInstance(16, 512, 4)
	cycle := func() {
		g := NewGraph(providers, false)
		for _, c := range customers {
			ci := g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
			addEdge(g, int32(int(ci)%len(providers)), ci)
		}
		g.Release()
	}
	// Warm the pools and grow every backing array to its steady size.
	for i := 0; i < 3; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(50, cycle)
	// One alloc for the Graph struct; a little slack for incidental
	// pool churn. The point is the absence of O(customers) allocation.
	if avg > 4 {
		t.Fatalf("graph construct/release cycle allocates %.1f times; want <= 4 (pooled scratch)", avg)
	}
}

// TestAllocsWarmSearch pins that a shortest-path search on a warm pooled
// graph allocates nothing: Hd and Hf are flat indexed heaps over the
// pooled search state, so BeginIteration+Search push and pop without
// allocating.
func TestAllocsWarmSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector")
	}
	providers, customers := benchInstance(16, 512, 4)
	g := NewGraph(providers, false)
	defer g.Release()
	for _, c := range customers {
		ci := g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
		for k := 0; k < 4; k++ {
			addEdge(g, int32((int(ci)+5*k)%len(providers)), ci)
		}
	}
	// Augment part of the way so searches also cross reversed edges.
	for it := 0; it < 32; it++ {
		g.BeginIteration()
		if _, _, ok := g.Search(); !ok {
			t.Fatal("no augmenting path")
		}
		if err := g.Augment(); err != nil {
			t.Fatal(err)
		}
	}
	search := func() {
		g.BeginIteration()
		if _, _, ok := g.Search(); !ok {
			t.Fatal("no augmenting path")
		}
	}
	search()
	if avg := testing.AllocsPerRun(50, search); avg != 0 {
		t.Fatalf("warm BeginIteration+Search allocates %.1f times; want 0", avg)
	}
}

// BenchmarkGraphConstruction measures the pooled build/release cycle the
// batch engine pays per solve.
func BenchmarkGraphConstruction(b *testing.B) {
	providers, customers := benchInstance(16, 512, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraph(providers, false)
		for _, c := range customers {
			ci := g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
			addEdge(g, int32(int(ci)%len(providers)), ci)
		}
		g.Release()
	}
}
