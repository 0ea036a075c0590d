package rtree

import (
	"errors"
	"testing"

	"repro/internal/geo"
	"repro/internal/storage"
)

// flakyStore wraps a MemStore and starts failing reads after a budget of
// successful ones — simulating a disk that dies mid-query. Every R-tree
// operation must surface the error instead of returning partial results
// silently.
type flakyStore struct {
	*storage.MemStore
	budget int
}

var errDiskDied = errors.New("injected disk failure")

func (f *flakyStore) Read(id storage.PageID, buf []byte) error {
	if f.budget <= 0 {
		return errDiskDied
	}
	f.budget--
	return f.MemStore.Read(id, buf)
}

func TestSearchSurfacesReadErrors(t *testing.T) {
	items := randItems(3000, 71)
	fs := &flakyStore{MemStore: storage.NewMemStore(1024), budget: 1 << 30}
	buf := storage.NewBuffer(fs, 4)
	tr, err := Bulk(buf, items)
	if err != nil {
		t.Fatal(err)
	}
	// Warm check: everything works with budget left.
	if _, err := tr.RangeSearch(geo.Point{X: 500, Y: 500}, 100); err != nil {
		t.Fatal(err)
	}

	kill := func() {
		buf.DropCache()
		fs.budget = 1 // allow the root read, then fail
	}

	kill()
	if _, err := tr.RangeSearch(geo.Point{X: 500, Y: 500}, 100); !errors.Is(err, errDiskDied) {
		t.Fatalf("RangeSearch must surface the failure, got %v", err)
	}
	kill()
	if _, err := tr.AnnularRange(geo.Point{X: 500, Y: 500}, 50, 200); !errors.Is(err, errDiskDied) {
		t.Fatalf("AnnularRange must surface the failure, got %v", err)
	}
	kill()
	if _, err := tr.All(); !errors.Is(err, errDiskDied) {
		t.Fatalf("All must surface the failure, got %v", err)
	}

	kill()
	if _, err := tr.KNN(geo.Point{X: 500, Y: 500}, len(items)); !errors.Is(err, errDiskDied) {
		t.Fatalf("KNN must surface the failure, got %v", err)
	}

	kill()
	src := NewANNSearch(tr, []geo.Point{{X: 500, Y: 500}}, testSpace, 1)
	failed := false
	for i := 0; i < len(items); i++ {
		if _, _, ok, err := src.Next(0); err != nil {
			if !errors.Is(err, errDiskDied) {
				t.Fatalf("ANN returned wrong error: %v", err)
			}
			failed = true
			break
		} else if !ok {
			break
		}
	}
	if !failed {
		t.Fatal("ANN search never saw the injected failure")
	}
}

// A disk that dies mid-search must fail the grouped ANN search at the
// same Next call, with the same error, as the eager expansion it
// replaced, whichever page read fails.
func TestANNReadErrorsMatchEager(t *testing.T) {
	items, queries := annInstance(4, 400, 6)
	ms := storage.NewMemStore(256)
	tr, err := Bulk(storage.NewBuffer(ms, 64), items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for budget := 0; budget < 60; budget += 3 {
		failAt := func(next func(int) (Item, float64, bool, error)) (int, error) {
			for call := 0; call < len(queries)*len(items); call++ {
				if _, _, ok, err := next(call % len(queries)); err != nil || !ok {
					return call, err
				}
			}
			return -1, nil
		}
		open := func() *Tree {
			tr, err := Open(storage.NewBuffer(&flakyStore{MemStore: ms, budget: budget + 1}, 3)) // +1: the meta page
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		lazyCall, lazyErr := failAt(NewANNSearch(open(), queries, testSpace, 3).Next)
		eagerCall, eagerErr := failAt(newEagerANN(open(), queries, testSpace, 3).Next)
		if !errors.Is(lazyErr, errDiskDied) || lazyCall != eagerCall || !errors.Is(eagerErr, errDiskDied) {
			t.Fatalf("read budget %d: failed at call %d with %v, oracle at call %d with %v",
				budget, lazyCall, lazyErr, eagerCall, eagerErr)
		}
	}
}

// A disk that dies while the tree is being packed must fail Bulk (and a
// later Flush), whether the failing write is the empty tree's root, a
// leaf or a directory page.
func TestBulkSurfacesWriteErrors(t *testing.T) {
	items := randItems(3000, 73)
	leaves := (len(items) + LeafCapacity(1024) - 1) / LeafCapacity(1024)
	for _, tc := range []struct {
		items  []Item
		budget int // successful writes before the disk dies
	}{
		{nil, 0},            // the empty leaf root
		{items, 0},          // the first leaf
		{items, leaves / 2}, // a leaf in the middle
		{items, leaves},     // the first directory page
	} {
		ws := &writeFailStore{MemStore: storage.NewMemStore(1024), budget: tc.budget}
		if _, err := Bulk(storage.NewBuffer(ws, 64), tc.items); !errors.Is(err, errDiskDied) {
			t.Fatalf("%d items, write budget %d: Bulk must surface the write failure, got %v",
				len(tc.items), tc.budget, err)
		}
	}

	ws := &writeFailStore{MemStore: storage.NewMemStore(1024), budget: 1 << 30}
	tr, err := Bulk(storage.NewBuffer(ws, 64), items)
	if err != nil {
		t.Fatal(err)
	}
	ws.budget = 0
	if err := tr.Flush(); !errors.Is(err, errDiskDied) {
		t.Fatalf("Flush must surface the write failure, got %v", err)
	}
}

// writeFailStore fails every write once its budget of successful writes
// is spent.
type writeFailStore struct {
	*storage.MemStore
	budget int
}

func (w *writeFailStore) Write(id storage.PageID, data []byte) error {
	if w.budget <= 0 {
		return errDiskDied
	}
	w.budget--
	return w.MemStore.Write(id, data)
}
