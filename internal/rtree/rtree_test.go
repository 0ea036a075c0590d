package rtree

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/storage"
)

func emptyTree(t *testing.T, pageSize, frames int) *Tree {
	t.Helper()
	tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(pageSize), frames), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int64(i), Pt: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}}
	}
	return items
}

func bulkTree(t *testing.T, items []Item) *Tree {
	t.Helper()
	tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(1024), 1024), items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCapacities(t *testing.T) {
	if got := LeafCapacity(1024); got != 42 {
		t.Errorf("LeafCapacity(1024) = %d want 42", got)
	}
	if got := DirCapacity(1024); got != 25 {
		t.Errorf("DirCapacity(1024) = %d want 25", got)
	}
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	leaf := &node{id: 7, leaf: true, items: []Item{
		{ID: 42, Pt: geo.Point{X: 1.5, Y: -2.25}},
		{ID: -1, Pt: geo.Point{X: math.Pi, Y: math.E}},
	}}
	data, err := encodeNode(leaf, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeNode(7, data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.leaf || len(got.items) != 2 || got.items[0] != leaf.items[0] || got.items[1] != leaf.items[1] {
		t.Fatalf("leaf round trip mismatch: %+v", got)
	}

	dir := &node{id: 9, childs: []dirEntry{
		{child: 3, count: 17, mbr: geo.Rect{Min: geo.Point{X: 0, Y: 1}, Max: geo.Point{X: 2, Y: 3}}},
		{child: 5, count: 23, mbr: geo.Rect{Min: geo.Point{X: -4, Y: -5}, Max: geo.Point{X: 6, Y: 7}}},
	}}
	data, err = encodeNode(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got, err = decodeNode(9, data)
	if err != nil {
		t.Fatal(err)
	}
	if got.leaf || len(got.childs) != 2 || got.childs[0] != dir.childs[0] || got.childs[1] != dir.childs[1] {
		t.Fatalf("dir round trip mismatch: %+v", got)
	}
}

func TestDecodeCorruptPage(t *testing.T) {
	if _, err := decodeNode(0, []byte{}); err == nil {
		t.Error("short page must fail")
	}
	bad := make([]byte, 64)
	bad[0] = 9 // unknown kind
	if _, err := decodeNode(0, bad); err == nil {
		t.Error("unknown kind must fail")
	}
	overflow := make([]byte, 64)
	overflow[0] = kindLeaf
	overflow[1] = 0xff // count 255 cannot fit in 64 bytes
	if _, err := decodeNode(0, overflow); err == nil {
		t.Error("overflowing count must fail")
	}
}

// STR packing must yield a valid tree holding exactly the loaded points
// at every page size, including the empty tree, a single full leaf, one
// point past it (the first directory level) and one point past a full
// directory of full leaves (the second directory level).
func TestBulkLoad(t *testing.T) {
	for _, pageSize := range []int{256, 512, 1024} {
		leafCap, dirCap := LeafCapacity(pageSize), DirCapacity(pageSize)
		for _, tc := range []struct{ n, height int }{
			{0, 1}, {1, 1}, {leafCap, 1}, {leafCap + 1, 2}, {leafCap*dirCap + 1, 3},
		} {
			items := randItems(tc.n, int64(tc.n))
			tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(pageSize), 1024), items)
			if err != nil {
				t.Fatalf("page %d, n=%d: %v", pageSize, tc.n, err)
			}
			if tr.Size() != tc.n || tr.Height() != tc.height {
				t.Fatalf("page %d, n=%d: size %d height %d, want height %d",
					pageSize, tc.n, tr.Size(), tr.Height(), tc.height)
			}
			if _, err := tr.checkInvariants(); err != nil {
				t.Fatalf("page %d, n=%d: %v", pageSize, tc.n, err)
			}
			got, err := tr.All()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.n {
				t.Fatalf("page %d, n=%d: All returned %d", pageSize, tc.n, len(got))
			}
			want := make(map[int64]geo.Point, tc.n)
			for _, it := range items {
				want[it.ID] = it.Pt
			}
			for _, it := range got {
				if p, ok := want[it.ID]; !ok || p != it.Pt {
					t.Fatalf("page %d, n=%d: All returned %+v, duplicated or not loaded", pageSize, tc.n, it)
				}
				delete(want, it.ID)
			}
		}
	}
}

// Points enter a tree only through Bulk; a loaded tree must report its
// size, pass the invariants and list every point exactly once.
func TestInsertAndAll(t *testing.T) {
	items := randItems(500, 1)
	tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(256), 1024), items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 500 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if _, err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("All returned %d items", len(got))
	}
	seen := make(map[int64]bool)
	for _, it := range got {
		if seen[it.ID] {
			t.Fatalf("duplicate item %d", it.ID)
		}
		seen[it.ID] = true
	}
}

// Random point sets of random size, loaded by Bulk at the smallest page
// size, must yield valid trees whose All returns the loaded points.
func TestInsertProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(300)
		items := make([]Item, n)
		pts := make(map[int64]geo.Point, n)
		for i := range items {
			items[i] = Item{ID: int64(i), Pt: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
			pts[items[i].ID] = items[i].Pt
		}
		tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(256), 1024), items)
		if err != nil {
			return false
		}
		if _, err := tr.checkInvariants(); err != nil {
			return false
		}
		all, err := tr.All()
		if err != nil || len(all) != n {
			return false
		}
		for _, it := range all {
			if pts[it.ID] != it.Pt {
				return false
			}
			delete(pts, it.ID)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBulkHeight(t *testing.T) {
	// 5000 points at leaf cap 42 -> 120 leaves -> needs 2 directory
	// levels at dir cap 25 (120 > 25).
	tr := bulkTree(t, randItems(5000, 3))
	if tr.Height() != 3 {
		t.Fatalf("Height = %d want 3", tr.Height())
	}
	// Utilization of STR should be near-full: pages ~= leaves + dirs + meta.
	leaves := int(math.Ceil(5000.0 / 42))
	if tr.PageCount() > leaves+10 {
		t.Fatalf("STR used %d pages for %d leaves", tr.PageCount(), leaves)
	}
}

// TestBulkPageDigest pins the exact page image of two fixed STR builds:
// every page's bytes, meta page included, in page order. The page
// layout sets every fault count the benchmarks report, so a change to
// the tiling (or to sort.Slice's permutation of tied coordinates, which
// the lattice set is full of) shows here first.
func TestBulkPageDigest(t *testing.T) {
	lattice := make([]Item, 5000)
	rng := rand.New(rand.NewSource(9))
	for i := range lattice {
		lattice[i] = Item{ID: int64(i), Pt: geo.Point{X: float64(rng.Intn(64)) * 10, Y: float64(rng.Intn(64)) * 10}}
	}
	for _, tc := range []struct {
		name  string
		items []Item
		want  string
	}{
		{"uniform", randItems(5000, 3), "e7f3c92da75d2fd24e1218fed75c4f3ad9607f4f550562c9706263ecc1fa7c31"},
		{"lattice", lattice, "b6ef21033732079a3537ada9c7a137fef654e8e4af4e467af785b1d7e3c8024f"},
	} {
		store := storage.NewMemStore(512)
		tr, err := Bulk(storage.NewBuffer(store, 1<<12), tc.items)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		page := make([]byte, store.PageSize())
		for id := 0; id < store.NumPages(); id++ {
			if err := store.Read(storage.PageID(id), page); err != nil {
				t.Fatal(err)
			}
			h.Write(page)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: %d pages, height %d, digest %s, want %s",
				tc.name, store.NumPages(), tr.Height(), got, tc.want)
		}
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	items := randItems(2000, 5)
	tr := bulkTree(t, items)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		center := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		r := rng.Float64() * 200
		got, err := tr.RangeSearch(center, r)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, it := range items {
			if center.Dist(it.Pt) <= r {
				want = append(want, it.ID)
			}
		}
		if !sameIDs(got, want) {
			t.Fatalf("trial %d: range mismatch: got %d items want %d", trial, len(got), len(want))
		}
	}
}

func TestAnnularRangeMatchesBruteForce(t *testing.T) {
	items := randItems(2000, 7)
	tr := bulkTree(t, items)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		center := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		rlo := rng.Float64() * 100
		rhi := rlo + rng.Float64()*150
		got, err := tr.AnnularRange(center, rlo, rhi)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, it := range items {
			d := center.Dist(it.Pt)
			if d > rlo && d <= rhi {
				want = append(want, it.ID)
			}
		}
		if !sameIDs(got, want) {
			t.Fatalf("trial %d: annular mismatch: got %d want %d", trial, len(got), len(want))
		}
	}
}

func TestAnnularDisjointCoversRange(t *testing.T) {
	// Consecutive annuli (T-θ, T] must partition the full range search,
	// the property RIA relies on to avoid duplicate edges.
	items := randItems(1000, 9)
	tr := bulkTree(t, items)
	center := geo.Point{X: 500, Y: 500}
	const theta = 100.0
	seen := make(map[int64]int)
	for step := 0; step < 15; step++ {
		lo, hi := float64(step)*theta, float64(step+1)*theta
		if step == 0 {
			lo = -1
		}
		got, err := tr.AnnularRange(center, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range got {
			seen[it.ID]++
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("annuli cover %d of 1000 points", len(seen))
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("point %d appeared %d times", id, c)
		}
	}
}

// KNN over the whole tree must deliver every point once, at the
// brute-force distance of each rank, bit for bit.
func TestKNNFullOrder(t *testing.T) {
	items := randItems(1200, 13)
	tr := bulkTree(t, items)
	q := geo.Point{X: 333, Y: 667}
	want := bruteForce(items, q)
	got, err := tr.KNN(q, len(items)+5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("KNN stopped at %d of %d", len(got), len(items))
	}
	seen := make(map[int64]bool, len(got))
	for i, it := range got {
		if seen[it.ID] {
			t.Fatalf("rank %d: item %d delivered twice", i, it.ID)
		}
		seen[it.ID] = true
		if d := q.Dist(it.Pt); math.Float64bits(d) != math.Float64bits(want[i].dist) {
			t.Fatalf("rank %d: got dist %v want %v (item %d)", i, d, want[i].dist, it.ID)
		}
	}
}

func TestKNNEmptyTree(t *testing.T) {
	tr := emptyTree(t, 256, 16)
	got, err := tr.KNN(geo.Point{X: 1, Y: 2}, 5)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty tree must yield nothing, got %v, %v", got, err)
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	fs, err := storage.CreateFileStore(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(700, 23)
	tr, err := Bulk(storage.NewBuffer(fs, 64), items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := storage.OpenFileStore(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	tr2, err := Open(storage.NewBuffer(fs2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Size() != 700 || tr2.Height() != tr.Height() {
		t.Fatalf("reopened tree: size %d height %d", tr2.Size(), tr2.Height())
	}
	got, err := tr2.RangeSearch(geo.Point{X: 500, Y: 500}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, it := range items {
		if (geo.Point{X: 500, Y: 500}).Dist(it.Pt) <= 100 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("post-reopen range: %d want %d", len(got), want)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	s := storage.NewMemStore(256)
	s.Alloc()
	if _, err := Open(storage.NewBuffer(s, 4)); err == nil {
		t.Fatal("Open must reject stores without R-tree metadata")
	}
}

func TestTraversalCursor(t *testing.T) {
	items := randItems(2000, 29)
	tr := bulkTree(t, items)
	root, err := tr.RootEntry()
	if err != nil {
		t.Fatal(err)
	}
	if root.Count != 2000 {
		t.Fatalf("root count = %d", root.Count)
	}
	// Walk the entire tree via the cursor and count points.
	var walk func(e Entry) int
	walk = func(e Entry) int {
		if e.Leaf {
			its, err := tr.LeafItems(e)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range its {
				if !e.MBR.Contains(it.Pt) {
					t.Fatalf("leaf MBR does not contain its item")
				}
			}
			return len(its)
		}
		kids, err := tr.Children(e)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, k := range kids {
			if !e.MBR.ContainsRect(k.MBR) {
				t.Fatal("child MBR escapes parent")
			}
			if k.Count <= 0 {
				t.Fatal("entry without count")
			}
			total += walk(k)
		}
		return total
	}
	if got := walk(root); got != 2000 {
		t.Fatalf("cursor walk found %d points", got)
	}
	// LeafItems on a directory entry must fail.
	if !root.Leaf {
		if _, err := tr.LeafItems(root); err == nil {
			t.Fatal("LeafItems on directory entry must fail")
		}
	}
}

func TestIOAccounting(t *testing.T) {
	items := randItems(3000, 31)
	buf := storage.NewBuffer(storage.NewMemStore(1024), 4)
	tr, err := Bulk(buf, items)
	if err != nil {
		t.Fatal(err)
	}
	buf.ResetStats()
	buf.DropCache()
	if _, err := tr.RangeSearch(geo.Point{X: 500, Y: 500}, 50); err != nil {
		t.Fatal(err)
	}
	st := buf.Stats()
	if st.Faults == 0 {
		t.Fatal("cold range search must fault")
	}
	if st.Faults > tr.PageCount() {
		t.Fatalf("faults %d exceed page count %d", st.Faults, tr.PageCount())
	}
	// A tiny range query must touch far fewer pages than the whole tree.
	if st.Faults*3 > tr.PageCount() {
		t.Fatalf("range search touched %d of %d pages — no pruning?", st.Faults, tr.PageCount())
	}
}

func TestKNN(t *testing.T) {
	items := randItems(800, 211)
	tr := bulkTree(t, items)
	q := geo.Point{X: 400, Y: 600}
	got, err := tr.KNN(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("KNN returned %d", len(got))
	}
	// Verify against brute force.
	best := append([]Item(nil), items...)
	for i := 0; i < 10; i++ {
		min := i
		for j := i + 1; j < len(best); j++ {
			if q.Dist(best[j].Pt) < q.Dist(best[min].Pt) {
				min = j
			}
		}
		best[i], best[min] = best[min], best[i]
		if got[i].ID != best[i].ID {
			// Ties can permute; compare distances instead.
			if d1, d2 := q.Dist(got[i].Pt), q.Dist(best[i].Pt); d1 != d2 {
				t.Fatalf("rank %d: got dist %v want %v", i, d1, d2)
			}
		}
	}
	// k larger than the tree returns everything.
	all, err := tr.KNN(q, 10000)
	if err != nil || len(all) != 800 {
		t.Fatalf("oversized k: %d items, %v", len(all), err)
	}
	// k=0 returns nothing.
	none, err := tr.KNN(q, 0)
	if err != nil || len(none) != 0 {
		t.Fatalf("k=0: %v %v", none, err)
	}
}

func sameIDs(got []Item, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	g := make([]int64, len(got))
	for i, it := range got {
		g[i] = it.ID
	}
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	w := append([]int64(nil), want...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}
