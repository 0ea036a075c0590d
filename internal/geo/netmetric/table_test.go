package netmetric

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/pqueue"
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
// path: every sources×targets Table.Dist must equal the point-query
// Dist exactly.
func TestManyToManyMatchesPointQueries(t *testing.T) {
	net := datagen.NewNetwork(12, space, 2008)
	sources := net.Points(datagen.Config{N: 24, Dist: datagen.Uniform, Seed: 4})
	targets := net.Points(datagen.Config{N: 200, Dist: datagen.Clustered, Seed: 5})
	tab := FromNetwork(net).BuildTable(sources, 0)
	if tab == nil {
		t.Fatal("BuildTable declined within default budget")
	}
	point := FromNetwork(net)
	for i, s := range sources {
		for j, q := range targets {
			want := point.Dist(s, q)
			if got := tab.Dist(s, q); got != want {
				t.Fatalf("Table.Dist[%d][%d]=%v != Dist=%v", i, j, got, want)
			}
		}
	}
	// Uncovered sources fall back to point queries, byte-identically.
	for j := 0; j+1 < len(targets); j += 7 {
		want := point.Dist(targets[j], targets[j+1])
		if got := tab.Dist(targets[j], targets[j+1]); got != want {
			t.Fatalf("fallback Table.Dist=%v != Dist=%v", got, want)
		}
	}
}

// TestTableSweepsSkipHierarchy pins that table rows run the plain
// canonical sweep even when the contraction hierarchy is on: BuildTable,
// and a sources×targets fill of Table.Dist must leave the hierarchy
// unbuilt (only point queries pay for the contraction), every filled
// cell must equal the assembly from full sssp sweeps, and every row,
// once settled to the end, must hold exactly what sssp produces, byte
// for byte.
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
	out := make([]float64, 0, len(sources)*len(targets))
	for _, p := range sources {
		for _, q := range targets {
			out = append(out, tab.Dist(p, q))
		}
	}
	for i := range tab.rows {
		m.settle(&tab.rows[i].sweep, -1)
	}
	if m.ch != nil {
		t.Fatal("table sweeps built the contraction hierarchy")
	}

	var want sweep
	for v, r := range tab.rowIdx {
		m.sssp(&want, v)
		row := tab.rows[r].dist
		for u := range want.dist {
			if row[u] != want.dist[u] {
				t.Fatalf("table row %d[%d] = %v, sssp = %v (must be byte-identical)", v, u, row[u], want.dist[u])
			}
		}
	}
	if settled, total := tab.Settled(); settled != total || total != tab.Coverage()*m.NumNodes() {
		t.Fatalf("fully swept table reports %d/%d settled labels, want %d", settled, total, tab.Coverage()*m.NumNodes())
	}
	var row0, row1 sweep
	for i, p := range sources {
		sp := m.snap(p)
		m.sssp(&row0, m.edges[sp.edge][0])
		m.sssp(&row1, m.edges[sp.edge][1])
		for j, q := range targets {
			if got, want := out[i*len(targets)+j], sweepAssembly(m, &row0, &row1, sp, m.snap(q)); got != want {
				t.Fatalf("Table.Dist[%d][%d] = %v, sssp assembly = %v (must be byte-identical)", i, j, got, want)
			}
		}
	}
}

// sweepAssembly assembles Dist(p, q) from two completed sweeps of p's
// snap-edge endpoints.
func sweepAssembly(m *NetworkMetric, row0, row1 *sweep, sp, sq snapPos) float64 {
	eq := m.edges[sq.edge]
	return m.assembleDist(sp, sq, [2][2]float64{
		{row0.dist[eq[0]], row0.dist[eq[1]]},
		{row1.dist[eq[0]], row1.dist[eq[1]]},
	})
}

// TestTableRowsStartSuspended pins that BuildTable runs no sweep: each
// row starts with only its source labelled and on the frontier, and a
// query next to the sources settles a small part of the network, not
// every row's full node vector.
func TestTableRowsStartSuspended(t *testing.T) {
	net := datagen.NewNetwork(16, space, 2008)
	sources := net.Points(datagen.Config{N: 8, Dist: datagen.Uniform, Seed: 21})
	m := FromNetwork(net)
	tab := m.BuildTable(sources, 0)
	if tab == nil {
		t.Fatal("BuildTable declined within default budget")
	}
	for v, r := range tab.rowIdx {
		row := tab.rows[r]
		if row.heap.Len() != 1 || row.heap.Peek() != (pqueue.Entry{Key: 0, H: v}) || row.dist[v] != 0 || len(row.order) != 0 {
			t.Fatalf("row %d after BuildTable: frontier of %d entries, settled %d; want only its source", v, row.heap.Len(), len(row.order))
		}
	}
	if settled, _ := tab.Settled(); settled != 0 {
		t.Fatalf("BuildTable settled %d labels; want 0", settled)
	}

	near := geo.Point{X: sources[0].X + 1, Y: sources[0].Y + 1}
	if got, want := tab.Dist(sources[0], near), FromNetwork(net).Dist(sources[0], near); got != want {
		t.Fatalf("Table.Dist = %v, point query = %v", got, want)
	}
	if settled, total := tab.Settled(); settled == 0 || settled >= m.NumNodes() {
		t.Fatalf("a query next to a source settled %d of %d labels; want 1..%d", settled, total, m.NumNodes()-1)
	}
}

// TestTableConcurrentQueries shares one Table among goroutines that
// query it in different orders, as a sharded solve's region workers do: every
// answer must equal the point query bit for bit (run under -race to
// check the per-row locking).
func TestTableConcurrentQueries(t *testing.T) {
	net := datagen.NewNetwork(16, space, 2008)
	sources := net.Points(datagen.Config{N: 10, Dist: datagen.Uniform, Seed: 31})
	targets := net.Points(datagen.Config{N: 120, Dist: datagen.Clustered, Seed: 32})
	point := FromNetwork(net)
	want := make([]float64, len(sources)*len(targets))
	for i, p := range sources {
		for j, q := range targets {
			want[i*len(targets)+j] = point.Dist(p, q)
		}
	}
	tab := FromNetwork(net).BuildTable(sources, 0)
	if tab == nil {
		t.Fatal("BuildTable declined within default budget")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		order := rand.New(rand.NewSource(int64(g))).Perm(len(want))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range order {
				i, j := k/len(targets), k%len(targets)
				if got := tab.Dist(sources[i], targets[j]); got != want[k] {
					t.Errorf("Table.Dist[%d][%d] = %v, point query = %v", i, j, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildTableBudget checks the size gate: a budget too small for the
// source set's endpoint rows declines instead of allocating them.
func TestBuildTableBudget(t *testing.T) {
	net := datagen.NewNetwork(12, space, 2008)
	m := FromNetwork(net)
	sources := net.Points(datagen.Config{N: 16, Dist: datagen.Uniform, Seed: 6})
	if tab := m.BuildTable(sources, m.NumNodes()); tab != nil {
		t.Fatalf("BuildTable built %d rows under a 1-row budget", tab.Coverage())
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

// allocatedBytes returns the bytes the heap allocated while f ran, with
// the collector off so that nothing pooled is dropped mid-measurement.
func allocatedBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFreshMetricAllocatesLittle pins that a new metric allocates its
// network and snap grid but no cache buckets: the snap, node-pair and
// point-pair LRUs make their maps on first use. Maps made up front with
// a 4,096-slot hint per shard would cost about 21 MB on any network.
func TestFreshMetricAllocatesLittle(t *testing.T) {
	net := datagen.NewNetwork(64, space, 2008)
	if got := allocatedBytes(func() { sinkMetric = FromNetwork(net) }); got > 1<<20 {
		t.Fatalf("a fresh 64-grid metric allocated %d bytes, want under 1 MB", got)
	}
}

var sinkMetric *NetworkMetric

// TestBuildTableReusesReleasedRows: Release hands a table's rows to the
// pool, and the next BuildTable takes them instead of allocating node
// vectors; the reused rows start fresh, so answers stay byte-identical
// with point queries. The collector is off from Release on, since a
// collection empties the pool, and one P runs the test, since a row in
// another P's private pool slot is out of this goroutine's reach.
func TestBuildTableReusesReleasedRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := datagen.NewNetwork(64, space, 2008)
	m := FromNetwork(net)
	sources := net.Points(datagen.Config{N: 8, Dist: datagen.Uniform, Seed: 31})
	targets := net.Points(datagen.Config{N: 40, Dist: datagen.Clustered, Seed: 32})
	first := m.BuildTable(sources, 0)
	if first == nil {
		t.Fatal("BuildTable declined within default budget")
	}
	for _, p := range sources {
		for _, q := range targets {
			first.Dist(p, q)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first.Release()
	if first.Coverage() != 0 {
		t.Fatalf("a released table still covers %d rows", first.Coverage())
	}

	var tab *Table
	vector := uint64(m.NumNodes()) * 8
	if got := allocatedBytes(func() { tab = m.BuildTable(sources, 0) }); got >= vector {
		t.Fatalf("BuildTable after Release allocated %d bytes, at least one %d-byte node vector", got, vector)
	}
	if tab.Coverage() == 0 {
		t.Fatal("the second table covers no row")
	}
	point := FromNetwork(net)
	for i, p := range sources {
		for j, q := range targets {
			if got, want := tab.Dist(p, q), point.Dist(p, q); got != want {
				t.Fatalf("reused-row Table.Dist[%d][%d] = %v, point query %v", i, j, got, want)
			}
		}
	}
	// A released table answers through point queries.
	if got, want := first.Dist(sources[0], targets[0]), point.Dist(sources[0], targets[0]); got != want {
		t.Fatalf("released Table.Dist = %v, point query %v", got, want)
	}
}

// TestBuildTableDropsOversizedRows: rows released by a table on a large
// network are not reused at their full size by a table on a small one,
// so a small table's rows hold vectors sized for its own network. Run
// like TestBuildTableReusesReleasedRows, so the pool does hand the
// large rows back.
func TestBuildTableDropsOversizedRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bigNet := datagen.NewNetwork(64, space, 2008)
	big := FromNetwork(bigNet)
	sources := bigNet.Points(datagen.Config{N: 8, Dist: datagen.Uniform, Seed: 31})
	large := big.BuildTable(sources, 0)
	for _, p := range sources {
		large.Dist(p, sources[0])
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	large.Release()

	smallNet := datagen.NewNetwork(8, space, 2008)
	small := FromNetwork(smallNet)
	tab := small.BuildTable(smallNet.Points(datagen.Config{N: 8, Dist: datagen.Uniform, Seed: 33}), 0)
	n := small.NumNodes()
	for i, r := range tab.rows {
		if cap(r.dist) > 2*n || cap(r.order) > 2*n {
			t.Fatalf("row %d of a %d-node table holds vectors of capacity %d (labels) and %d (order)", i, n, cap(r.dist), cap(r.order))
		}
	}
}
