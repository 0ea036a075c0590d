package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/storage"
)

// Bulk builds a tree from items using sort-tile-recursive (STR) packing:
// items are sorted by x, cut into vertical slices, each slice sorted by y
// and packed into full leaves; directory levels are packed the same way
// over child centers. STR yields near-100% page utilization and square
// node MBRs, matching how the paper's datasets would be indexed.
func Bulk(buf *storage.Buffer, items []Item) (*Tree, error) {
	pageSize := buf.Store().PageSize()
	leafCap, dirCap := LeafCapacity(pageSize), DirCapacity(pageSize)
	if leafCap < 2 || dirCap < 2 {
		return nil, fmt.Errorf("rtree: page size %d too small", pageSize)
	}
	t := &Tree{buf: buf}
	if _, err := buf.Alloc(); err != nil { // meta page
		return nil, err
	}
	entries, err := packSTR(t, items, leafCap,
		func(it Item) float64 { return it.Pt.X },
		func(it Item) float64 { return it.Pt.Y },
		func(id storage.PageID, run []Item) *node { return &node{id: id, leaf: true, items: run} })
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 { // no items: the root is one empty leaf
		id, err := buf.Alloc()
		if err != nil {
			return nil, err
		}
		if err := t.writeNode(&node{id: id, leaf: true}); err != nil {
			return nil, err
		}
		entries = []dirEntry{{child: id}}
	}
	height := 1
	// Pack directory levels until a single root remains.
	for len(entries) > 1 {
		entries, err = packSTR(t, entries, dirCap,
			func(e dirEntry) float64 { return e.mbr.Center().X },
			func(e dirEntry) float64 { return e.mbr.Center().Y },
			func(id storage.PageID, run []dirEntry) *node { return &node{id: id, childs: run} })
		if err != nil {
			return nil, err
		}
		height++
	}
	t.root = entries[0].child
	t.height = height
	t.size = len(items)
	return t, nil
}

// packSTR writes one STR level: elems (copied) are sorted by x, cut
// into ⌈√pages⌉ vertical slices of whole pages, each slice is sorted by
// y, and every run of cap consecutive elements becomes one page built
// by makeNode. It returns the level's entries in page order.
func packSTR[T any](t *Tree, elems []T, cap int, x, y func(T) float64,
	makeNode func(id storage.PageID, run []T) *node) ([]dirEntry, error) {
	sorted := make([]T, len(elems))
	copy(sorted, elems)
	sort.Slice(sorted, func(i, j int) bool { return x(sorted[i]) < x(sorted[j]) })
	nPages := (len(sorted) + cap - 1) / cap
	sliceSize := int(math.Ceil(math.Sqrt(float64(nPages)))) * cap

	var entries []dirEntry
	for s := 0; s < len(sorted); s += sliceSize {
		slice := sorted[s:min(s+sliceSize, len(sorted))]
		sort.Slice(slice, func(i, j int) bool { return y(slice[i]) < y(slice[j]) })
		for o := 0; o < len(slice); o += cap {
			id, err := t.buf.Alloc()
			if err != nil {
				return nil, err
			}
			n := makeNode(id, slice[o:min(o+cap, len(slice))])
			if err := t.writeNode(n); err != nil {
				return nil, err
			}
			entries = append(entries, dirEntry{child: id, count: n.subtreeCount(), mbr: n.mbr()})
		}
	}
	return entries, nil
}
