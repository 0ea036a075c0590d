package netmetric

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/lru"
)

var space = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

// square builds the unit-square network 0-1-2-3 with side length 10:
//
//	2 (0,10) — 3 (10,10)
//	|              |
//	0 (0,0)  — 1 (10,0)
func square(t *testing.T) *NetworkMetric {
	t.Helper()
	m, err := New(
		[]geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}},
		[][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNodeDistSquare(t *testing.T) {
	m := square(t)
	cases := []struct {
		a, b int32
		want float64
	}{
		{0, 0, 0}, {0, 1, 10}, {0, 3, 20}, {2, 1, 20}, {3, 0, 20},
	}
	for _, c := range cases {
		if got := m.NodeDist(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NodeDist(%d,%d) = %g want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDistOnSharedEdge(t *testing.T) {
	m := square(t)
	p := geo.Point{X: 2, Y: 0}
	q := geo.Point{X: 7, Y: 0}
	if got := m.Dist(p, q); math.Abs(got-5) > 1e-9 {
		t.Errorf("same-edge Dist = %g want 5", got)
	}
	if got := m.Dist(p, p); got != 0 {
		t.Errorf("Dist(p,p) = %g want 0 for an on-network point", got)
	}
}

func TestDistAcrossEdges(t *testing.T) {
	m := square(t)
	p := geo.Point{X: 2, Y: 0} // on edge 0-1
	q := geo.Point{X: 0, Y: 8} // on edge 0-2
	// Travel: 2 back to node 0, then 8 up.
	if got := m.Dist(p, q); math.Abs(got-10) > 1e-9 {
		t.Errorf("cross-edge Dist = %g want 10", got)
	}
}

func TestSnapOffset(t *testing.T) {
	m := square(t)
	p := geo.Point{X: 5, Y: 3} // interior: nearest edge is 0-1, offset 3
	pos, off := m.Snap(p)
	if math.Abs(off-3) > 1e-9 || math.Abs(pos.X-5) > 1e-9 || math.Abs(pos.Y) > 1e-9 {
		t.Errorf("Snap(%v) = %v, %g; want (5,0), 3", p, pos, off)
	}
	q := geo.Point{X: 5, Y: 7} // nearest edge is 2-3
	// p and q snap to opposite sides: travel 5+10+5, plus offsets 3+3.
	if got, want := m.Dist(p, q), 3.0+5+10+5+3; math.Abs(got-want) > 1e-9 {
		t.Errorf("Dist(%v,%v) = %g want %g", p, q, got, want)
	}
}

func TestLowerBoundsEuclidean(t *testing.T) {
	net := datagen.NewNetwork(16, space, 7)
	m := FromNetwork(net)
	rng := rand.New(rand.NewSource(11))
	pts := net.Points(datagen.Config{N: 200, Dist: datagen.Clustered, Seed: 3})
	for i := 0; i < 500; i++ {
		p := pts[rng.Intn(len(pts))]
		q := pts[rng.Intn(len(pts))]
		nd := m.Dist(p, q)
		ed := p.Dist(q)
		if nd < ed-1e-9 {
			t.Fatalf("Dist(%v,%v) = %g < Euclidean %g", p, q, nd, ed)
		}
		if back := m.Dist(q, p); math.Abs(back-nd) > 1e-9 {
			t.Fatalf("asymmetric: %g vs %g", nd, back)
		}
	}
}

func TestBridgingConnectsComponents(t *testing.T) {
	// Two disjoint segments; the bridge must make them reachable.
	m, err := New(
		[]geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 30, Y: 0}, {X: 40, Y: 0}},
		[][2]int32{{0, 1}, {2, 3}},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.Bridges() != 1 {
		t.Fatalf("Bridges() = %d want 1", m.Bridges())
	}
	// Bridge links the closest pair (nodes 1 and 2, gap 20).
	if got := m.NodeDist(0, 3); math.Abs(got-40) > 1e-9 {
		t.Errorf("NodeDist(0,3) = %g want 40", got)
	}
	// Snapping never targets the virtual bridge edge.
	pos, _ := m.Snap(geo.Point{X: 20, Y: 0})
	onBridge := pos.X > 10+1e-9 && pos.X < 30-1e-9
	if onBridge {
		t.Errorf("snap landed on the virtual bridge at %v", pos)
	}
}

func TestDatagenNetworkConnected(t *testing.T) {
	// Every pair of nodes must be reachable after bridging, for several
	// seeds and grid sizes.
	for _, seed := range []int64{1, 2, 2008} {
		net := datagen.NewNetwork(12, space, seed)
		m := FromNetwork(net)
		for i := 0; i < m.NumNodes(); i += 17 {
			if d := m.NodeDist(0, int32(i)); math.IsInf(d, 1) {
				t.Fatalf("seed %d: node %d unreachable from 0", seed, i)
			}
		}
	}
}

func TestNodeDistMatchesReferenceDijkstra(t *testing.T) {
	net := datagen.NewNetwork(10, space, 5)
	m := FromNetwork(net)
	// Single-source reference Dijkstra (plain, one-directional).
	ref := func(src int32) []float64 {
		dist := make([]float64, m.NumNodes())
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[src] = 0
		done := make([]bool, m.NumNodes())
		for {
			u, best := int32(-1), math.Inf(1)
			for i, d := range dist {
				if !done[i] && d < best {
					u, best = int32(i), d
				}
			}
			if u < 0 {
				return dist
			}
			done[u] = true
			for _, a := range m.adj[u] {
				if nd := best + a.length; nd < dist[a.to] {
					dist[a.to] = nd
				}
			}
		}
	}
	for _, src := range []int32{0, 13, 57} {
		want := ref(src)
		for dst := 0; dst < m.NumNodes(); dst += 7 {
			if got := m.NodeDist(src, int32(dst)); math.Abs(got-want[dst]) > 1e-9 {
				t.Fatalf("NodeDist(%d,%d) = %g want %g", src, dst, got, want[dst])
			}
		}
	}
}

func TestCacheStats(t *testing.T) {
	net := datagen.NewNetwork(8, space, 3)
	m := FromNetwork(net)
	p := geo.Point{X: 100, Y: 100}
	q := geo.Point{X: 800, Y: 700}
	m.Dist(p, q)
	first := m.Stats()
	if first.NodeMisses == 0 || first.SnapMisses != 2 || first.PairMisses != 1 {
		t.Fatalf("expected cold misses, got %+v", first)
	}
	// A finished point pair is memoized whole: the repeat answers from
	// the pair cache without touching the snap or node layers at all.
	m.Dist(p, q)
	second := m.Stats()
	if second.PairHits != first.PairHits+1 {
		t.Errorf("repeat query missed the pair cache: %+v -> %+v", first, second)
	}
	if second.NodeMisses != first.NodeMisses || second.SnapMisses != first.SnapMisses ||
		second.SnapHits != first.SnapHits || second.NodeHits != first.NodeHits {
		t.Errorf("repeat query fell through the pair cache: %+v -> %+v", first, second)
	}
	// New point pairs resolving to already-searched node pairs are
	// served by the inner layers: the node-pair entries written by the
	// first query satisfy a direct node query without a new search.
	m.NodeDist(m.SnapNode(p), m.SnapNode(q))
	third := m.Stats()
	if third.NodeMisses != second.NodeMisses || third.NodeHits != second.NodeHits+1 {
		t.Errorf("known node pair re-searched: %+v -> %+v", second, third)
	}
	if third.SnapHits != second.SnapHits+2 {
		t.Errorf("known snaps recomputed: %+v -> %+v", second, third)
	}
	if r := third.NodeHitRate(); r <= 0 || r >= 1 {
		t.Errorf("NodeHitRate = %g, want in (0,1)", r)
	}
}

// TestCacheEviction: with deliberately tiny caches the metric keeps
// answering correctly — recomputing displaced entries — and the stats
// expose the eviction pressure. The caches are sharded, so a tiny
// capacity rounds up to one entry per shard; sweeping more distinct
// keys than shards makes eviction a pigeonhole certainty, not a hash
// accident.
func TestCacheEviction(t *testing.T) {
	net := datagen.NewNetwork(8, space, 3)
	m := FromNetwork(net)
	m.snapCache = lru.NewSharded[geo.Point, snapPos](4, cacheShards)
	m.nodeCache = lru.NewSharded[[2]int32, float64](4, cacheShards)
	m.pairCache = lru.NewSharded[pointPair, float64](8, cacheShards)
	keys := m.snapCache.Cap() + 1 // > total bound ⇒ some shard overflows

	pts := make([]geo.Point, keys)
	for i := range pts {
		pts[i] = geo.Point{X: float64(7 + 90*i%987), Y: float64((911*i + 13) % 997)}
	}
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = m.Dist(p, pts[0])
	}
	// A second sweep over a working set exceeding the cache bound must
	// evict on the snap cache, yet every distance stays identical.
	for i, p := range pts {
		if got := m.Dist(p, pts[0]); got != want[i] {
			t.Fatalf("Dist(%v) changed after eviction: %g vs %g", p, got, want[i])
		}
	}
	// Node-pair keys: more distinct pairs than the node cache holds.
	for b := int32(1); int(b) < m.NumNodes() && int(b) <= m.nodeCache.Cap()+1; b++ {
		m.NodeDist(0, b)
	}
	st := m.Stats()
	if st.SnapEvictions == 0 || st.NodeEvictions == 0 {
		t.Fatalf("expected evictions on tiny caches, got %+v", st)
	}
}

// TestConcurrentDist hammers one shared metric from many goroutines;
// run with -race to verify the cache guards (the engine batch test in
// the root package exercises the same path end-to-end).
func TestConcurrentDist(t *testing.T) {
	net := datagen.NewNetwork(10, space, 9)
	m := FromNetwork(net)
	pts := net.Points(datagen.Config{N: 64, Dist: datagen.Uniform, Seed: 4})
	// Sequential reference answers.
	want := make([]float64, 0, len(pts)/2)
	refM := FromNetwork(net)
	for i := 0; i+1 < len(pts); i += 2 {
		want = append(want, refM.Dist(pts[i], pts[i+1]))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := 0; i+1 < len(pts); i += 2 {
					if got := m.Dist(pts[i], pts[i+1]); math.Abs(got-want[i/2]) > 1e-9 {
						errs <- "concurrent Dist mismatch"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("New(nil, nil) should fail")
	}
	if _, err := New([]geo.Point{{X: 0, Y: 0}}, [][2]int32{{0, 5}}); err == nil {
		t.Error("out-of-range edge should fail")
	}
}

func TestMetricName(t *testing.T) {
	m := square(t)
	var iface geo.Metric = m
	if iface.Name() != "network" {
		t.Errorf("Name() = %q want %q", iface.Name(), "network")
	}
}
