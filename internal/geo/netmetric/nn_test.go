package netmetric

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
)

// nnHit is one emitted (point, distance) pair of a stream.
type nnHit struct {
	id   int64
	dist float64
}

// nnInstance builds sources and an id-shuffled point set over net that
// exercises the stream's edge cases: clustered points on the network,
// exact duplicates (equal distances from every source), points on the
// first source's own snap edge (its endpoints included), the sources
// themselves, and points off the network (non-zero snap offsets).
func nnInstance(m *NetworkMetric, net *datagen.Network, seed int64, nsrc, npts int) ([]geo.Point, []int64, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	sources := net.Points(datagen.Config{N: nsrc, Dist: datagen.Uniform, Seed: seed + 1})
	pts := net.Points(datagen.Config{N: npts, Dist: datagen.Clustered, Seed: seed + 2})
	for i := 0; i < npts/4; i++ {
		pts = append(pts, pts[rng.Intn(len(pts))])
	}
	e := m.edges[m.snap(sources[0]).edge]
	a, b := m.nodes[e[0]], m.nodes[e[1]]
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		pts = append(pts, geo.Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)})
	}
	pts = append(pts, sources...)
	for i := 0; i < 4; i++ {
		pts = append(pts, geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
	}
	ids := make([]int64, len(pts))
	for i, j := range rng.Perm(len(pts)) {
		ids[i] = int64(j)*3 - 7 // distinct, unordered, some negative
	}
	return sources, ids, pts
}

// bruteNN lists every point with its Table.Dist from src, sorted by
// (distance, id): what a source's stream must emit, bit for bit.
func bruteNN(tab *Table, src geo.Point, ids []int64, pts []geo.Point) []nnHit {
	out := make([]nnHit, len(pts))
	for i, p := range pts {
		out[i] = nnHit{id: ids[i], dist: tab.Dist(src, p)}
	}
	slices.SortFunc(out, func(a, b nnHit) int {
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		if a.id < b.id {
			return -1
		}
		if a.id > b.id {
			return 1
		}
		return 0
	})
	return out
}

// checkNN drives one stream per source with the given interleaving —
// each byte < 224 calls Next on source byte mod |sources|; each larger
// byte instead advances the stream's own table rows out of band with a
// Table.Dist query, as a concurrent region solve would — then drains
// every stream, and compares each emitted sequence with bruteNN.
func checkNN(t *testing.T, m *NetworkMetric, sources []geo.Point, ids []int64, pts []geo.Point, order []byte) {
	t.Helper()
	tab := m.BuildTable(sources, 0)
	if tab == nil {
		t.Fatal("BuildTable declined within default budget")
	}
	ref := m.BuildTable(sources, 0)
	nn := tab.NN(sources, m.IndexPoints(ids, pts))
	if nn == nil {
		t.Fatal("NN declined the table's own sources")
	}
	got := make([][]nnHit, len(sources))
	next := func(q int) bool {
		i, d, ok := nn.Next(q)
		if ok {
			id, _ := nn.x.Point(i)
			got[q] = append(got[q], nnHit{id: id, dist: d})
		}
		return ok
	}
	for k, b := range order {
		if b >= 224 {
			tab.Dist(sources[k%len(sources)], pts[int(b)*(k+1)%len(pts)])
			continue
		}
		next(int(b) % len(sources))
	}
	for q := range sources {
		for next(q) {
		}
		want := bruteNN(ref, sources[q], ids, pts)
		if len(got[q]) != len(want) {
			t.Fatalf("source %d: stream emitted %d points, want %d", q, len(got[q]), len(want))
		}
		for j := range want {
			g, w := got[q][j], want[j]
			if g.id != w.id || math.Float64bits(g.dist) != math.Float64bits(w.dist) {
				t.Fatalf("source %d, rank %d: stream (%d, %v), brute force (%d, %v)", q, j, g.id, g.dist, w.id, w.dist)
			}
		}
	}
	if pushed, emitted := tab.NNStats(); emitted != int64(len(sources)*len(pts)) || pushed != emitted {
		t.Fatalf("NNStats after draining = (%d pushed, %d emitted); want %d of each", pushed, emitted, len(sources)*len(pts))
	}
}

// FuzzNetworkNN drives the network nearest-neighbour streams over a
// small random network with an arbitrary interleaving of Next calls
// across sources: every stream must emit exactly the brute-force
// (distance, id) order of Table.Dist, bit for bit.
func FuzzNetworkNN(f *testing.F) {
	f.Add(int64(2008), uint8(3), []byte{0, 0, 1, 5, 2, 9, 0, 3})
	f.Add(int64(7), uint8(1), []byte{0, 240, 0, 0, 250, 0})
	f.Add(int64(-3), uint8(6), []byte{5, 1, 4, 2, 3, 3, 2, 4, 1, 5, 0, 6, 255, 224})
	f.Fuzz(func(t *testing.T, seed int64, nsrc uint8, order []byte) {
		if len(order) > 256 {
			order = order[:256]
		}
		net := datagen.NewNetwork(4+int(uint64(seed)%5), space, seed)
		m := FromNetwork(net)
		sources, ids, pts := nnInstance(m, net, seed, 1+int(nsrc%6), 24)
		checkNN(t, m, sources, ids, pts, order)
	})
}

// TestNetworkNNMatchesBruteForce runs the stream check on a larger
// network and point set than the fuzz seeds, with round-robin Next
// calls.
func TestNetworkNNMatchesBruteForce(t *testing.T) {
	net := datagen.NewNetwork(16, space, 2008)
	m := FromNetwork(net)
	sources, ids, pts := nnInstance(m, net, 11, 8, 400)
	order := make([]byte, 600)
	for i := range order {
		order[i] = byte(i % 8)
	}
	checkNN(t, m, sources, ids, pts, order)
}

// TestNetworkNNConcurrent runs two streams over one table from two
// goroutines, as a sharded solve's regions do; run under -race to check
// the row locking. Each must still match the brute-force order.
func TestNetworkNNConcurrent(t *testing.T) {
	net := datagen.NewNetwork(16, space, 2008)
	m := FromNetwork(net)
	sources, ids, pts := nnInstance(m, net, 5, 6, 300)
	tab := m.BuildTable(sources, 0)
	ref := m.BuildTable(sources, 0)
	x := m.IndexPoints(ids, pts)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		nn := tab.NN(sources, x)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range sources {
				want := bruteNN(ref, sources[q], ids, pts)
				for j, w := range want {
					i, d, ok := nn.Next(q)
					if id, _ := x.Point(i); !ok || id != w.id || d != w.dist {
						t.Errorf("source %d, rank %d: stream (%d, %v, %v), brute force (%d, %v)", q, j, id, d, ok, w.id, w.dist)
						return
					}
				}
				if _, _, ok := nn.Next(q); ok {
					t.Errorf("source %d: stream emitted past %d points", q, len(want))
				}
			}
		}()
	}
	wg.Wait()
}

// TestNetworkNNForeignSources pins the fallback contract: an index over
// another network, or a source whose snap edge has no table rows, gets
// no stream; an index over another metric built from the same network
// does.
func TestNetworkNNForeignSources(t *testing.T) {
	net := datagen.NewNetwork(12, space, 2008)
	m := FromNetwork(net)
	sources := net.Points(datagen.Config{N: 2, Dist: datagen.Uniform, Seed: 1})
	tab := m.BuildTable(sources[:1], 0)
	pts := net.Points(datagen.Config{N: 10, Dist: datagen.Uniform, Seed: 2})
	ids := make([]int64, len(pts))
	if tab.NN(sources[:1], FromNetwork(datagen.NewNetwork(12, space, 2009)).IndexPoints(ids, pts)) != nil {
		t.Fatal("NN accepted an index over another network")
	}
	if tab.NN(sources[:1], FromNetwork(net).IndexPoints(ids, pts)) == nil {
		t.Fatal("NN refused an index over another metric on the same network")
	}
	if m.snap(sources[0]).edge != m.snap(sources[1]).edge && tab.NN(sources, m.IndexPoints(ids, pts)) != nil {
		t.Fatal("NN accepted a source the table has no rows for")
	}
}
