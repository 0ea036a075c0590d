package rtree_test

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// The refinement tests live in the external package so they can run
// RefinedNN over the real road-network metric (netmetric imports rtree).

var refineSpace = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

// warpedMetric is a deliberately non-Euclidean test metric that honors
// the lower-bound contract: Dist = euclid * (1.5 + 0.5·sin(x_p+x_q)),
// always in [euclid, 2·euclid], symmetric, and it reorders neighbors
// relative to Euclidean distance.
type warpedMetric struct{}

func (warpedMetric) Name() string { return "warped" }
func (warpedMetric) Dist(p, q geo.Point) float64 {
	return p.Dist(q) * (1.5 + 0.5*math.Sin(p.X+q.X))
}

func randPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

func itemsOf(pts []geo.Point) []rtree.Item {
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{ID: int64(i), Pt: p}
	}
	return items
}

func packedTree(t *testing.T, items []rtree.Item) *rtree.Tree {
	t.Helper()
	tr, err := rtree.Bulk(storage.NewBuffer(storage.NewMemStore(1024), 1024), items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func refinedOver(tr *rtree.Tree, queries []geo.Point, m geo.Metric, groupSize int) *rtree.RefinedNN {
	return rtree.NewRefinedNN(rtree.NewANNSearch(tr, queries, refineSpace, groupSize), queries, m)
}

// RefinedNN must stream every item exactly once, in ascending *metric*
// order, with the metric distance as the reported key — over base
// groups of one (per-query) and of four (ann), under a warped metric and
// under the road-network metric. The network points sit on a 16-grid's
// edges, and a fifth of them are duplicated, so exact ties in both the
// Euclidean key and the network distance occur; there every key's bits
// must equal metric.Dist.
func TestRefinedNNMatchesBruteForce(t *testing.T) {
	net := datagen.NewNetwork(16, refineSpace, 2008)
	netPts := net.Points(datagen.Config{N: 400, Dist: datagen.Clustered, Seed: 7})
	netPts = append(netPts, netPts[:80]...)
	netQueries := net.Points(datagen.Config{N: 6, Dist: datagen.Uniform, Seed: 8})
	for _, tc := range []struct {
		name    string
		metric  geo.Metric
		pts     []geo.Point
		queries []geo.Point
		group   int
	}{
		{"per-query", warpedMetric{}, randPoints(600, 51), randPoints(6, 53), 1},
		{"ann", warpedMetric{}, randPoints(600, 51), randPoints(6, 53), 4},
		{"network-per-query", netmetric.FromNetwork(net), netPts, netQueries, 1},
		{"network-ann", netmetric.FromNetwork(net), netPts, netQueries, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := itemsOf(tc.pts)
			src := refinedOver(packedTree(t, items), tc.queries, tc.metric, tc.group)
			for qi, q := range tc.queries {
				want := make([]float64, 0, len(items))
				for _, it := range items {
					want = append(want, tc.metric.Dist(q, it.Pt))
				}
				sort.Float64s(want)
				seen := make(map[int64]bool)
				for k := range want {
					it, d, ok, err := src.Next(qi)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("q%d exhausted at rank %d of %d", qi, k, len(want))
					}
					if seen[it.ID] {
						t.Fatalf("q%d: item %d delivered twice", qi, it.ID)
					}
					seen[it.ID] = true
					if d != want[k] {
						t.Fatalf("q%d rank %d: got %v want %v", qi, k, d, want[k])
					}
					if got := tc.metric.Dist(q, it.Pt); got != d {
						t.Fatalf("q%d rank %d: reported key %v is not the metric distance %v", qi, k, d, got)
					}
				}
				if _, _, ok, _ := src.Next(qi); ok {
					t.Fatalf("q%d: source yielded more than %d items", qi, len(items))
				}
			}
		})
	}
}

// Under the Euclidean metric the refinement layer must be a transparent
// pass-through (same order, same distances).
func TestRefinedNNEuclideanPassThrough(t *testing.T) {
	items := itemsOf(randPoints(200, 57))
	queries := randPoints(3, 59)
	plain := rtree.NewANNSearch(packedTree(t, items), queries, refineSpace, 1)
	refined := refinedOver(packedTree(t, items), queries, geo.Euclidean, 1)
	for qi := range queries {
		for k := 0; k < len(items); k++ {
			pi, pd, pok, _ := plain.Next(qi)
			ri, rd, rok, _ := refined.Next(qi)
			if pok != rok || (pok && (pi.ID != ri.ID || math.Abs(pd-rd) > 1e-12)) {
				t.Fatalf("q%d rank %d: plain (%v,%f,%v) != refined (%v,%f,%v)",
					qi, k, pi.ID, pd, pok, ri.ID, rd, rok)
			}
		}
	}
}

// Interleaved consumption across queries must not cross-contaminate the
// per-query refinement heaps.
func TestRefinedNNInterleaved(t *testing.T) {
	items := itemsOf(randPoints(150, 61))
	queries := randPoints(4, 63)
	src := refinedOver(packedTree(t, items), queries, warpedMetric{}, 4)
	prev := make([]float64, len(queries))
	for round := 0; round < 30; round++ {
		for qi := range queries {
			_, d, ok, err := src.Next(qi)
			if err != nil || !ok {
				t.Fatalf("q%d round %d: ok=%v err=%v", qi, round, ok, err)
			}
			if d < prev[qi]-1e-9 {
				t.Fatalf("q%d round %d: distance went backwards (%f after %f)", qi, round, d, prev[qi])
			}
			prev[qi] = d
		}
	}
}

// l1Metric is the Manhattan distance: it honors the lower-bound contract
// (|dx|+|dy| >= the Euclidean distance) and, on an integer lattice, puts
// many points at exactly equal distances whose Euclidean keys differ.
type l1Metric struct{}

func (l1Metric) Name() string { return "l1" }
func (l1Metric) Dist(p, q geo.Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// pullCounter wraps RefinedNN's base stream, counting each query's pulls
// and keeping the error of the latest one.
type pullCounter struct {
	rtree.NNSource
	pulls []int
	err   error
}

func (p *pullCounter) Next(qi int) (rtree.Item, float64, bool, error) {
	p.pulls[qi]++
	it, d, ok, err := p.NNSource.Next(qi)
	p.err = err
	return it, d, ok, err
}

var errReadFailed = errors.New("injected read failure")

// failingStore fails every page read once its budget of successful
// reads is spent.
type failingStore struct {
	*storage.MemStore
	budget int
}

func (f *failingStore) Read(id storage.PageID, buf []byte) error {
	if f.budget <= 0 {
		return errReadFailed
	}
	f.budget--
	return f.MemStore.Read(id, buf)
}

// FuzzRefinedNN replays arbitrary interleavings of Next (member byte %
// len(queries)) on a RefinedNN over ANNInstance's random small trees
// (odd seeds on the tie-heavy [0,8)² lattice, a quarter of the points
// duplicated), under L1 or a 6-grid road network laid over the
// instance's space, with the base
// ANNSearch at group sizes from 0 (the default) to one past the query
// count. Every report's key must be the metric distance of its item,
// each drained stream must be the brute-force distance sequence bit for
// bit with each item once, and equal distances must ascend in item ID
// between base pulls. With a read budget, the tree's store fails once it
// is spent, and the Next call whose base pull hit the failure must
// return it.
func FuzzRefinedNN(f *testing.F) {
	metrics := [3]geo.Metric{
		l1Metric{},
		netmetric.FromNetwork(datagen.NewNetwork(6, geo.Rect{Max: geo.Point{X: 7, Y: 7}}, 3)),
		netmetric.FromNetwork(datagen.NewNetwork(6, refineSpace, 3)),
	}
	f.Add(int64(1), uint8(60), uint8(4), uint8(2), uint8(0), uint8(0), uint16(0x5), []byte{0, 1, 2, 3, 0, 0, 1, 3, 3, 3})
	f.Add(int64(2), uint8(200), uint8(9), uint8(3), uint8(1), uint8(0), uint16(0x1ff), []byte{8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(int64(3), uint8(255), uint8(1), uint8(1), uint8(1), uint8(0), uint16(1), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(5), uint8(120), uint8(3), uint8(0), uint8(0), uint8(9), uint16(0x7), []byte{1, 2})
	f.Add(int64(6), uint8(90), uint8(5), uint8(1), uint8(0), uint8(0), uint16(0x1f), []byte{4, 4, 3})
	f.Fuzz(func(t *testing.T, seed int64, n, nq, gs, metricSel, budget uint8, drain uint16, order []byte) {
		if len(order) > 512 {
			order = order[:512]
		}
		items, queries := rtree.ANNInstance(seed, int(n), 1+int(nq%12))
		metric := metrics[0]
		if metricSel&1 != 0 {
			metric = metrics[2]
			if seed&1 != 0 { // on the lattice
				metric = metrics[1]
			}
		}
		store := storage.NewMemStore(256)
		tr, err := rtree.Bulk(storage.NewBuffer(store, 64), items)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		fs := &failingStore{MemStore: store, budget: math.MaxInt}
		if budget > 0 {
			fs.budget = int(budget) // the meta page read below spends one
		}
		if tr, err = rtree.Open(storage.NewBuffer(fs, 3)); err != nil {
			return // the budget ran out before the search began
		}
		base := &pullCounter{
			NNSource: rtree.NewANNSearch(tr, queries, refineSpace, int(gs)%(len(queries)+2)),
			pulls:    make([]int, len(queries)),
		}
		src := rtree.NewRefinedNN(base, queries, metric)
		type rank struct {
			id    int64
			dist  float64
			pulls int
		}
		streams := make([][]rank, len(queries))
		// next reports whether qi yielded a neighbour; false also after
		// the injected failure, which stops the replay.
		failed := false
		next := func(qi int) bool {
			if failed {
				return false
			}
			base.err = nil
			it, d, ok, err := src.Next(qi)
			if err != nil || base.err != nil {
				if !errors.Is(err, errReadFailed) || err != base.err {
					t.Fatalf("q%d rank %d: Next returned %v, the base pull %v", qi, len(streams[qi]), err, base.err)
				}
				failed = true
				return false
			}
			if !ok {
				return false
			}
			if got := metric.Dist(queries[qi], it.Pt); math.Float64bits(got) != math.Float64bits(d) {
				t.Fatalf("q%d rank %d: item %d reported at %v, metric distance %v", qi, len(streams[qi]), it.ID, d, got)
			}
			streams[qi] = append(streams[qi], rank{it.ID, d, base.pulls[qi]})
			return true
		}
		for _, b := range order {
			next(int(b) % len(queries))
		}
		for qi, q := range queries {
			if drain>>qi&1 == 0 {
				continue
			}
			for next(qi) {
			}
			if failed {
				return
			}
			want := make([]float64, len(items))
			for i, it := range items {
				want[i] = metric.Dist(q, it.Pt)
			}
			sort.Float64s(want)
			if len(streams[qi]) != len(items) {
				t.Fatalf("q%d: %d of %d items reported", qi, len(streams[qi]), len(items))
			}
			seen := make(map[int64]bool, len(items))
			for k, r := range streams[qi] {
				if seen[r.id] {
					t.Fatalf("q%d: item %d reported twice", qi, r.id)
				}
				seen[r.id] = true
				if math.Float64bits(r.dist) != math.Float64bits(want[k]) {
					t.Fatalf("q%d rank %d: distance %v, brute force %v", qi, k, r.dist, want[k])
				}
			}
		}
		for qi, s := range streams {
			for k := 1; k < len(s); k++ {
				if s[k].dist < s[k-1].dist {
					t.Fatalf("q%d rank %d: distance %v after %v", qi, k, s[k].dist, s[k-1].dist)
				}
				if s[k].dist == s[k-1].dist && s[k].pulls == s[k-1].pulls && s[k].id < s[k-1].id {
					t.Fatalf("q%d rank %d: item %d after %d at the same distance %v", qi, k, s[k].id, s[k-1].id, s[k].dist)
				}
			}
		}
	})
}
