package netmetric

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool reuse
// is deliberately defeated and allocation budgets cannot hold.
var raceEnabled bool

// testPairs returns deterministic pseudo-random node pairs over m.
func testPairs(m *NetworkMetric, n int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int32, n)
	for i := range out {
		out[i] = [2]int32{int32(rng.Intn(m.NumNodes())), int32(rng.Intn(m.NumNodes()))}
	}
	return out
}

// TestManyToManyMatchesPointQueries pins byte-identity of the bulk
// path: ManyToMany, Table.Dist and point-query Dist must agree
// exactly, with landmarks on and off.
func TestManyToManyMatchesPointQueries(t *testing.T) {
	net := datagen.NewNetwork(12, space, 2008)
	sources := net.Points(datagen.Config{N: 24, Dist: datagen.Uniform, Seed: 4})
	targets := net.Points(datagen.Config{N: 200, Dist: datagen.Clustered, Seed: 5})
	for _, lmk := range []int{DefaultLandmarks, 0} {
		bulk := FromNetwork(net)
		bulk.SetLandmarks(lmk)
		mat := bulk.ManyToMany(sources, targets)
		tab := bulk.BuildTable(sources, 0)
		if tab == nil {
			t.Fatal("BuildTable declined within default budget")
		}
		point := FromNetwork(net)
		point.SetLandmarks(lmk)
		for i, s := range sources {
			for j, q := range targets {
				want := point.Dist(s, q)
				if mat[i][j] != want {
					t.Fatalf("landmarks=%d ManyToMany[%d][%d]=%v != Dist=%v", lmk, i, j, mat[i][j], want)
				}
				if got := tab.Dist(s, q); got != want {
					t.Fatalf("landmarks=%d Table.Dist[%d][%d]=%v != Dist=%v", lmk, i, j, got, want)
				}
			}
		}
		// Uncovered sources fall back to point queries, byte-identically.
		for j := 0; j+1 < len(targets); j += 7 {
			want := point.Dist(targets[j], targets[j+1])
			if got := tab.Dist(targets[j], targets[j+1]); got != want {
				t.Fatalf("landmarks=%d fallback Table.Dist=%v != Dist=%v", lmk, got, want)
			}
		}
	}
}

// TestTableSweepsSkipHierarchy pins that bulk tables run the plain
// canonical sweep even when the contraction hierarchy is on: BuildTable
// and ManyToManyInto must leave the hierarchy unbuilt (only point
// queries pay for the contraction) and must produce exactly what sssp
// vectors produce, byte for byte.
func TestTableSweepsSkipHierarchy(t *testing.T) {
	net := datagen.NewNetwork(16, space, 2008)
	sources := net.Points(datagen.Config{N: 12, Dist: datagen.Uniform, Seed: 14})
	targets := net.Points(datagen.Config{N: 96, Dist: datagen.Clustered, Seed: 15})
	m := FromNetwork(net)
	m.SetCH(1)

	tab := m.BuildTable(sources, 0)
	if tab == nil {
		t.Fatal("BuildTable declined within default budget")
	}
	out := m.ManyToManyInto(sources, targets, nil)
	if m.ch != nil {
		t.Fatal("table sweeps built the contraction hierarchy")
	}

	n := m.NumNodes()
	want := make([]float64, n)
	var h nheap
	for v, r := range tab.vecIdx {
		m.sssp(v, want, &h)
		row := tab.vecs[int(r)*n : int(r+1)*n]
		for u := range want {
			if row[u] != want[u] {
				t.Fatalf("BuildTable row %d[%d] = %v, sssp = %v (must be byte-identical)", v, u, row[u], want[u])
			}
		}
	}
	row0, row1 := make([]float64, n), make([]float64, n)
	for i, p := range sources {
		sp := m.snap(p)
		m.sssp(m.edges[sp.edge][0], row0, &h)
		m.sssp(m.edges[sp.edge][1], row1, &h)
		for j, q := range targets {
			if got, want := out[i*len(targets)+j], m.assembleDist(sp, row0, row1, m.snap(q)); got != want {
				t.Fatalf("ManyToManyInto[%d][%d] = %v, sssp assembly = %v (must be byte-identical)", i, j, got, want)
			}
		}
	}
}

// TestBuildTableBudget checks the size gate: a budget too small for the
// source set's endpoint vectors declines instead of materializing.
func TestBuildTableBudget(t *testing.T) {
	net := datagen.NewNetwork(12, space, 2008)
	m := FromNetwork(net)
	sources := net.Points(datagen.Config{N: 16, Dist: datagen.Uniform, Seed: 6})
	if tab := m.BuildTable(sources, m.NumNodes()); tab != nil {
		t.Fatalf("BuildTable built %d vectors under a 1-vector budget", tab.Coverage())
	}
	tab := m.BuildTable(sources, 0)
	if tab == nil {
		t.Fatal("BuildTable declined the default budget")
	}
	if got, max := tab.Coverage(), 2*len(sources); got < 1 || got > max {
		t.Fatalf("table coverage %d outside [1,%d]", got, max)
	}
}

// TestAllocsPointQuery pins the pooled-scratch budget of the cold
// reference search: once the pool is warm, a query must not allocate.
func TestAllocsPointQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector")
	}
	m := FromNetwork(datagen.NewNetwork(16, space, 2008))
	pairs := testPairs(m, 64, 7)
	m.forwardDijkstra(pairs[0][0], pairs[0][1]) // warm the pool
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		pr := pairs[i%len(pairs)]
		sinkDist = m.forwardDijkstra(pr[0], pr[1])
		i++
	}); avg != 0 {
		t.Errorf("forwardDijkstra allocates %.1f per query; want 0", avg)
	}
}

// TestAllocsManyToMany pins the bulk sweep's budget: with a warm snap
// cache and pooled scratch, a ManyToManyInto call into a caller buffer
// must not allocate.
func TestAllocsManyToMany(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector")
	}
	net := datagen.NewNetwork(12, space, 2008)
	m := FromNetwork(net)
	sources := net.Points(datagen.Config{N: 16, Dist: datagen.Uniform, Seed: 8})
	targets := net.Points(datagen.Config{N: 128, Dist: datagen.Clustered, Seed: 9})
	out := make([]float64, len(sources)*len(targets))
	m.ManyToManyInto(sources, targets, out) // warm snap cache + scratch pool
	if avg := testing.AllocsPerRun(20, func() {
		m.ManyToManyInto(sources, targets, out)
	}); avg != 0 {
		t.Errorf("ManyToManyInto allocates %.1f per sweep; want 0", avg)
	}
}
