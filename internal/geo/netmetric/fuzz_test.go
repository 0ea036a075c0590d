package netmetric

import (
	"math"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
)

// fuzzMetric is the shared fuzz-target network; building it once keeps
// the per-input cost at a few cached lookups.
var fuzzMetric = sync.OnceValue(func() *NetworkMetric {
	return FromNetwork(datagen.NewNetwork(12, space, 2008))
})

// clampToSpace pulls arbitrary fuzzed coordinates into a sane window
// around the data space (2x the space on every side), discarding NaN and
// infinities: the metric contract is stated over finite points.
func clampToSpace(v float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	lo, hi := -1000.0, 2000.0
	return math.Max(lo, math.Min(hi, v)), true
}

// FuzzMetricContract asserts the geo.Metric contract plus the
// lower-bound property the exact algorithms' pruning relies on:
// non-negativity, symmetry, Dist >= Euclidean, and the triangle
// inequality for shortest-path distances between snapped nodes.
func FuzzMetricContract(f *testing.F) {
	f.Add(0.0, 0.0, 1000.0, 1000.0, 500.0, 500.0)
	f.Add(13.5, 900.25, 800.0, 17.75, 1.0, 2.0)
	f.Add(-50.0, 1200.0, 333.3, 333.3, 999.0, 0.0)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3 float64) {
		coords := [6]float64{x1, y1, x2, y2, x3, y3}
		for i, v := range coords {
			c, ok := clampToSpace(v)
			if !ok {
				t.Skip("non-finite input")
			}
			coords[i] = c
		}
		p := geo.Point{X: coords[0], Y: coords[1]}
		q := geo.Point{X: coords[2], Y: coords[3]}
		r := geo.Point{X: coords[4], Y: coords[5]}
		m := fuzzMetric()

		dpq := m.Dist(p, q)
		if dpq < 0 {
			t.Fatalf("negative distance %g for %v -> %v", dpq, p, q)
		}
		if dqp := m.Dist(q, p); math.Abs(dpq-dqp) > 1e-9*(1+dpq) {
			t.Fatalf("asymmetric: Dist(p,q)=%g Dist(q,p)=%g", dpq, dqp)
		}
		if euclid := p.Dist(q); dpq < euclid-1e-9*(1+euclid) {
			t.Fatalf("lower bound violated: network %g < Euclidean %g for %v -> %v",
				dpq, euclid, p, q)
		}

		// Triangle inequality on the snapped nodes (shortest-path node
		// distances are a true metric; the point-level Dist is not,
		// because snap offsets are paid per call).
		a, b, c := m.SnapNode(p), m.SnapNode(q), m.SnapNode(r)
		ab, bc, ac := m.NodeDist(a, b), m.NodeDist(b, c), m.NodeDist(a, c)
		if ac > ab+bc+1e-9*(1+ac) {
			t.Fatalf("node triangle inequality violated: d(%d,%d)=%g > d(%d,%d)+d(%d,%d)=%g+%g",
				a, c, ac, a, b, b, c, ab, bc)
		}
		if aa := m.NodeDist(a, a); aa != 0 {
			t.Fatalf("NodeDist(%d,%d) = %g, want 0", a, a, aa)
		}
	})
}

// FuzzLandmarkBound fuzzes the ALT bound's contract: admissibility
// against both the point metric and the node distances, symmetry, and
// agreement with the Euclidean floor.
func FuzzLandmarkBound(f *testing.F) {
	f.Add(0.0, 0.0, 1000.0, 1000.0)
	f.Add(13.5, 900.25, 800.0, 17.75)
	f.Add(500.0, 500.0, 500.0, 500.0)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2 float64) {
		coords := [4]float64{x1, y1, x2, y2}
		for i, v := range coords {
			c, ok := clampToSpace(v)
			if !ok {
				t.Skip("non-finite input")
			}
			coords[i] = c
		}
		p := geo.Point{X: coords[0], Y: coords[1]}
		q := geo.Point{X: coords[2], Y: coords[3]}
		m := fuzzMetric()
		lm := m.landmarks()

		lb := m.LowerBound(p, q)
		d := m.Dist(p, q)
		if lb > d {
			t.Fatalf("landmark bound not admissible: lb=%v > Dist=%v for %v -> %v", lb, d, p, q)
		}
		if euclid := p.Dist(q); lb < euclid {
			t.Fatalf("bound below Euclidean floor: lb=%v < %v", lb, euclid)
		}
		if rev := m.LowerBound(q, p); math.Abs(lb-rev) > 1e-9*(1+lb) {
			t.Fatalf("bound asymmetric: %v vs %v", lb, rev)
		}
		// Node-level admissibility and exact symmetry, consistent with
		// the node triangle contract in FuzzMetricContract.
		a, b := m.SnapNode(p), m.SnapNode(q)
		nb := lm.lbNodes(a, b)
		if rev := lm.lbNodes(b, a); rev != nb {
			t.Fatalf("lbNodes asymmetric: %v vs %v", nb, rev)
		}
		if nd := m.NodeDist(a, b); nb > nd+1e-9*(1+nd) {
			t.Fatalf("lbNodes(%d,%d)=%v exceeds NodeDist=%v", a, b, nb, nd)
		}
	})
}

// FuzzTableMatchesSSSP drives a table over a small random network with
// an arbitrary interleaving of queries: each pair of order bytes picks
// a (source, target) query, so rows are advanced in whatever order and
// by whatever amounts the input dictates. Every Table.Dist must match
// the value assembled from completed sssp sweeps, and after a final
// settle-all every row must be byte-identical to sssp.
func FuzzTableMatchesSSSP(f *testing.F) {
	f.Add(int64(2008), uint8(3), []byte{0, 0, 1, 5, 2, 9, 0, 3})
	f.Add(int64(7), uint8(1), []byte{0, 11, 0, 0})
	f.Add(int64(-3), uint8(6), []byte{5, 1, 4, 2, 3, 3, 2, 4, 1, 5, 0, 6})
	f.Fuzz(func(t *testing.T, seed int64, nsrc uint8, order []byte) {
		if len(order) > 256 {
			order = order[:256]
		}
		net := datagen.NewNetwork(4+int(uint64(seed)%5), space, seed)
		m := FromNetwork(net)
		sources := net.Points(datagen.Config{N: 1 + int(nsrc%6), Dist: datagen.Uniform, Seed: seed + 1})
		targets := net.Points(datagen.Config{N: 12, Dist: datagen.Clustered, Seed: seed + 2})
		tab := m.BuildTable(sources, 0)
		if tab == nil {
			t.Fatal("BuildTable declined within default budget")
		}

		full := make(map[int32]*sweep, tab.Coverage())
		for v := range tab.rowIdx {
			full[v] = new(sweep)
			m.sssp(full[v], v)
		}
		for k := 0; k+1 < len(order); k += 2 {
			p := sources[int(order[k])%len(sources)]
			q := targets[int(order[k+1])%len(targets)]
			sp := m.snap(p)
			ep := m.edges[sp.edge]
			want := sweepAssembly(m, full[ep[0]], full[ep[1]], sp, m.snap(q))
			if got := tab.Dist(p, q); got != want {
				t.Fatalf("query %d: Table.Dist = %v, sssp assembly = %v", k/2, got, want)
			}
		}
		for v, r := range tab.rowIdx {
			row := &tab.rows[r].sweep
			m.settle(row, -1)
			for u, d := range full[v].dist {
				if row.dist[u] != d {
					t.Fatalf("row %d[%d] = %v after settle-all, sssp = %v", v, u, row.dist[u], d)
				}
			}
		}
	})
}
