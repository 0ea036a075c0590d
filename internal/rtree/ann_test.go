package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/storage"
)

var testSpace = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

func randQueries(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geo.Point, n)
	for i := range qs {
		qs[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return qs
}

// The grouped search, with groups of one and of four, must yield for
// every query point exactly the brute-force distance order: the same
// distance bits at every rank, and the same item wherever that rank's
// distance is unique.
func TestNNSourcesMatchBruteForce(t *testing.T) {
	items := randItems(1500, 41)
	tr := bulkTree(t, items)
	queries := randQueries(10, 43)

	sources := map[string]NNSource{
		"per-query": NewANNSearch(tr, queries, testSpace, 1),
		"ann":       NewANNSearch(tr, queries, testSpace, 4),
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			for qi, q := range queries {
				want := bruteForce(items, q)
				// Pull the first 50 NNs.
				for k := 0; k < 50; k++ {
					it, d, ok, err := src.Next(qi)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("q%d exhausted at rank %d", qi, k)
					}
					if math.Float64bits(d) != math.Float64bits(want[k].dist) {
						t.Fatalf("q%d rank %d: got %v want %v", qi, k, d, want[k].dist)
					}
					unique := (k == 0 || want[k-1].dist != d) && want[k+1].dist != d
					if unique && it.ID != want[k].item.ID {
						t.Fatalf("q%d rank %d: got item %d want %d at the unique distance %v", qi, k, it.ID, want[k].item.ID, d)
					}
				}
			}
		})
	}
}

// bruteForce returns every item with its distance from q, in (distance,
// item ID) order.
func bruteForce(items []Item, q geo.Point) []cand {
	out := make([]cand, len(items))
	for i, it := range items {
		out[i] = cand{q.Dist(it.Pt), it}
	}
	sort.Slice(out, candHeap(out).Less)
	return out
}

// Exhausting an NN source must deliver each point exactly once per query.
func TestANNExhaustive(t *testing.T) {
	items := randItems(300, 47)
	tr := bulkTree(t, items)
	queries := randQueries(5, 49)
	src := NewANNSearch(tr, queries, testSpace, 2)
	for qi := range queries {
		seen := make(map[int64]bool)
		prev := -1.0
		for {
			it, d, ok, err := src.Next(qi)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if d < prev {
				t.Fatalf("q%d: non-monotone distances", qi)
			}
			prev = d
			if seen[it.ID] {
				t.Fatalf("q%d: duplicate item %d", qi, it.ID)
			}
			seen[it.ID] = true
		}
		if len(seen) != len(items) {
			t.Fatalf("q%d saw %d of %d items", qi, len(seen), len(items))
		}
	}
}

// The point of grouped ANN: fewer page faults than independent
// per-query search (groups of one) when the query points are clustered.
func TestANNSharesIO(t *testing.T) {
	items := randItems(5000, 53)
	rng := rand.New(rand.NewSource(54))
	// 16 clustered query points.
	queries := make([]geo.Point, 16)
	for i := range queries {
		queries[i] = geo.Point{X: 400 + rng.Float64()*50, Y: 600 + rng.Float64()*50}
	}

	run := func(mk func(*Tree) NNSource) int {
		buf := storage.NewBuffer(storage.NewMemStore(1024), 8)
		tr, err := Bulk(buf, items)
		if err != nil {
			t.Fatal(err)
		}
		buf.DropCache()
		buf.ResetStats()
		src := mk(tr)
		for qi := range queries {
			for k := 0; k < 100; k++ {
				if _, _, ok, err := src.Next(qi); err != nil || !ok {
					t.Fatalf("source ended early: %v", err)
				}
			}
		}
		return buf.Stats().Faults
	}

	perQuery := run(func(tr *Tree) NNSource { return NewANNSearch(tr, queries, testSpace, 1) })
	ann := run(func(tr *Tree) NNSource { return NewANNSearch(tr, queries, testSpace, 8) })
	if ann >= perQuery {
		t.Fatalf("ANN should save I/O: ann=%d per-query=%d faults", ann, perQuery)
	}
}

func TestANNEmptyTree(t *testing.T) {
	tr := emptyTree(t, 256, 16)
	src := NewANNSearch(tr, []geo.Point{{X: 1, Y: 1}}, testSpace, 0)
	if _, _, ok, _ := src.Next(0); ok {
		t.Fatal("empty tree must yield nothing")
	}
}

func TestANNGroupSizes(t *testing.T) {
	items := randItems(500, 59)
	tr := bulkTree(t, items)
	queries := randQueries(7, 61)
	for _, gs := range []int{1, 3, 7, 100} {
		src := NewANNSearch(tr, queries, testSpace, gs)
		for qi, q := range queries {
			_, d, ok, err := src.Next(qi)
			if err != nil || !ok {
				t.Fatalf("gs=%d q%d: %v", gs, qi, err)
			}
			// First NN distance must match brute force.
			best := math.Inf(1)
			for _, it := range items {
				if dd := q.Dist(it.Pt); dd < best {
					best = dd
				}
			}
			if math.Abs(d-best) > 1e-9 {
				t.Fatalf("gs=%d q%d: first NN %f want %f", gs, qi, d, best)
			}
		}
	}
}

// annInstance builds a small random point set and query set. Odd seeds
// put both on the integer lattice [0,8)², where equal distances and
// duplicate points abound; even seeds draw from [0,1000)² and duplicate
// a quarter of the points. IDs are a permutation, unrelated to the
// order in which STR packs the points into leaves.
func annInstance(seed int64, n, nq int) ([]Item, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	lattice := seed&1 != 0
	pt := func() geo.Point {
		if lattice {
			return geo.Point{X: float64(rng.Intn(8)), Y: float64(rng.Intn(8))}
		}
		return geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	items := make([]Item, n)
	for i, id := range rng.Perm(n) {
		items[i] = Item{ID: int64(3*id + 1), Pt: pt()}
		if i > 0 && rng.Intn(4) == 0 {
			items[i].Pt = items[rng.Intn(i)].Pt
		}
	}
	queries := make([]geo.Point, nq)
	for i := range queries {
		queries[i] = pt()
	}
	return items, queries
}

// ANNInstance exposes annInstance to the external refinement tests.
var ANNInstance = annInstance

// annRank is one reported neighbour, with the number of pages its group
// had read when it was reported.
type annRank struct {
	id    int64
	dist  float64
	reads int
}

// checkANN replays the Next calls order names (member byte % len(queries))
// on ANNSearch and on the eager oracle, each over its own cold buffer on
// one store, then drains the members whose bit is set in drain. Every
// call must agree bit for bit, the buffers must see the same faults and
// reads, every drained stream must be the brute-force distance sequence
// with each item once, and within a run of equal distances IDs ascend
// between page reads.
func checkANN(t *testing.T, items []Item, queries []geo.Point, groupSize int, order []byte, drain uint16) {
	t.Helper()
	store := storage.NewMemStore(256)
	tr, err := Bulk(storage.NewBuffer(store, 64), items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	open := func() *Tree {
		tr, err := Open(storage.NewBuffer(store, 3))
		if err != nil {
			t.Fatal(err)
		}
		tr.Buffer().ResetStats()
		return tr
	}
	lazyTree, eagerTree := open(), open()
	lazy := NewANNSearch(lazyTree, queries, testSpace, groupSize)
	eager := newEagerANN(eagerTree, queries, testSpace, groupSize)
	streams := make([][]annRank, len(queries))
	next := func(qi int) bool {
		it, d, ok, err := lazy.Next(qi)
		wit, wd, wok, werr := eager.Next(qi)
		if err != nil || werr != nil {
			t.Fatalf("q%d: errors %v, oracle %v", qi, err, werr)
		}
		if ok != wok || it != wit || math.Float64bits(d) != math.Float64bits(wd) {
			t.Fatalf("q%d rank %d: (%v, %v, %v), oracle (%v, %v, %v)", qi, len(streams[qi]), it, d, ok, wit, wd, wok)
		}
		if ok {
			streams[qi] = append(streams[qi], annRank{it.ID, d, eager.byQuery[qi].reads})
		}
		return ok
	}
	for _, b := range order {
		next(int(b) % len(queries))
	}
	for qi := range queries {
		if drain>>qi&1 == 0 {
			continue
		}
		for next(qi) {
		}
		want := bruteForce(items, queries[qi])
		seen := make(map[int64]bool, len(items))
		for k, r := range streams[qi] {
			if seen[r.id] {
				t.Fatalf("q%d: item %d reported twice", qi, r.id)
			}
			seen[r.id] = true
			if math.Float64bits(r.dist) != math.Float64bits(want[k].dist) {
				t.Fatalf("q%d rank %d: distance %v, brute force %v", qi, k, r.dist, want[k].dist)
			}
		}
		if len(seen) != len(items) {
			t.Fatalf("q%d: %d of %d items reported", qi, len(seen), len(items))
		}
	}
	for qi, s := range streams {
		for k := 1; k < len(s); k++ {
			if s[k].dist < s[k-1].dist {
				t.Fatalf("q%d rank %d: distance %v after %v", qi, k, s[k].dist, s[k-1].dist)
			}
			if s[k].dist == s[k-1].dist && s[k].reads == s[k-1].reads && s[k].id < s[k-1].id {
				t.Fatalf("q%d rank %d: item %d after %d at the same distance %v", qi, k, s[k].id, s[k-1].id, s[k].dist)
			}
		}
	}
	if got, want := lazyTree.Buffer().Stats(), eagerTree.Buffer().Stats(); got != want {
		t.Fatalf("buffer stats %+v, oracle %+v", got, want)
	}
}

// FuzzANNSearch checks the leaf-block search against the eager
// expansion it replaced, over random trees (half on a tie-heavy
// lattice), group sizes from 0 (the default) to one past the query
// count, and arbitrary interleavings of Next with some members drained.
func FuzzANNSearch(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(4), uint8(2), uint16(0x5), []byte{0, 1, 2, 3, 0, 0, 1, 3, 3, 3})
	f.Add(int64(2), uint8(200), uint8(9), uint8(3), uint16(0x1ff), []byte{8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(int64(7), uint8(255), uint8(1), uint8(0), uint16(0), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(9), uint8(0), uint8(3), uint8(5), uint16(0x7), []byte{1, 2})
	f.Fuzz(func(t *testing.T, seed int64, n, nq, gs uint8, drain uint16, order []byte) {
		if len(order) > 512 {
			order = order[:512]
		}
		items, queries := annInstance(seed, int(n), 1+int(nq%12))
		checkANN(t, items, queries, int(gs)%(len(queries)+2), order, drain)
	})
}

// TestANNMatchesEagerRoundRobin runs the oracle check on a lattice and
// on a float instance larger than the fuzz seeds, every member drained
// in round-robin order.
func TestANNMatchesEagerRoundRobin(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		items, queries := annInstance(seed, 600, 10)
		order := make([]byte, 3000)
		for i := range order {
			order[i] = byte(i % len(queries))
		}
		checkANN(t, items, queries, 4, order, 0xffff)
	}
}

// Reading a leaf costs each member one block entry; only the blocks a
// member pops cost it their points. On clustered customers with 16
// providers pulling 400 neighbours each (ida pulls 2.8k–12.4k per solve
// on BenchmarkAssignIDAClustered's instance, of the same shape) that is
// over 10x fewer candidate-heap pushes than pushing every leaf point to
// every member.
func TestANNLeafBlocksCutPushes(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	items := make([]Item, 20000)
	var centers [10]geo.Point
	for i := range centers {
		centers[i] = geo.Point{X: 100 + rng.Float64()*800, Y: 100 + rng.Float64()*800}
	}
	for i := range items {
		p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		if i%5 != 0 {
			c := centers[rng.Intn(len(centers))]
			p = geo.Point{X: c.X + rng.NormFloat64()*25, Y: c.Y + rng.NormFloat64()*25}
		}
		items[i] = Item{ID: int64(i), Pt: p}
	}
	queries := randQueries(16, 2009)
	build := func() *Tree {
		tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(1024), 8), items)
		if err != nil {
			t.Fatal(err)
		}
		tr.Buffer().DropCache()
		tr.Buffer().ResetStats()
		return tr
	}
	lazyTree, eagerTree := build(), build()
	lazy := NewANNSearch(lazyTree, queries, testSpace, 0)
	eager := newEagerANN(eagerTree, queries, testSpace, 0)
	for k := 0; k < 400; k++ {
		for qi := range queries {
			it, d, _, err := lazy.Next(qi)
			wit, wd, _, werr := eager.Next(qi)
			if err != nil || werr != nil || it != wit || d != wd {
				t.Fatalf("q%d rank %d: (%v, %v, %v), oracle (%v, %v, %v)", qi, k, it, d, err, wit, wd, werr)
			}
		}
	}
	if got, want := lazyTree.Buffer().Stats(), eagerTree.Buffer().Stats(); got != want {
		t.Fatalf("buffer stats %+v, oracle %+v", got, want)
	}
	t.Logf("candidate-heap pushes: %d with leaf blocks, %d eager (%.1fx); %d faults", lazy.pushes, eager.pushes,
		float64(eager.pushes)/float64(lazy.pushes), lazyTree.Buffer().Stats().Faults)
	if lazy.pushes*10 >= eager.pushes {
		t.Fatalf("leaf blocks pushed %d candidates, eager %d: want over 10x fewer", lazy.pushes, eager.pushes)
	}
}
