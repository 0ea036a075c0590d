package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/storage"
)

func sortItemsByX(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].Pt.X < items[j].Pt.X })
}

func sortItemsByY(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].Pt.Y < items[j].Pt.Y })
}

func sortEntriesByX(es []dirEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].mbr.Center().X < es[j].mbr.Center().X })
}

func sortEntriesByY(es []dirEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].mbr.Center().Y < es[j].mbr.Center().Y })
}

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
	entries, err := t.packLeaves(items, leafCap)
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
		entries, err = t.packDir(entries, dirCap)
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

func (t *Tree) packLeaves(items []Item, cap int) ([]dirEntry, error) {
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sortItemsByX(sorted)
	nLeaves := (len(sorted) + cap - 1) / cap
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := nSlices * cap

	var entries []dirEntry
	for s := 0; s < len(sorted); s += sliceSize {
		end := s + sliceSize
		if end > len(sorted) {
			end = len(sorted)
		}
		slice := sorted[s:end]
		sortItemsByY(slice)
		for o := 0; o < len(slice); o += cap {
			oe := o + cap
			if oe > len(slice) {
				oe = len(slice)
			}
			id, err := t.buf.Alloc()
			if err != nil {
				return nil, err
			}
			n := &node{id: id, leaf: true, items: slice[o:oe]}
			if err := t.writeNode(n); err != nil {
				return nil, err
			}
			entries = append(entries, dirEntry{child: id, count: len(n.items), mbr: n.mbr()})
		}
	}
	return entries, nil
}

func (t *Tree) packDir(children []dirEntry, cap int) ([]dirEntry, error) {
	sorted := make([]dirEntry, len(children))
	copy(sorted, children)
	sortEntriesByX(sorted)
	nNodes := (len(sorted) + cap - 1) / cap
	nSlices := int(math.Ceil(math.Sqrt(float64(nNodes))))
	sliceSize := nSlices * cap

	var entries []dirEntry
	for s := 0; s < len(sorted); s += sliceSize {
		end := s + sliceSize
		if end > len(sorted) {
			end = len(sorted)
		}
		slice := sorted[s:end]
		sortEntriesByY(slice)
		for o := 0; o < len(slice); o += cap {
			oe := o + cap
			if oe > len(slice) {
				oe = len(slice)
			}
			id, err := t.buf.Alloc()
			if err != nil {
				return nil, err
			}
			n := &node{id: id, childs: slice[o:oe]}
			if err := t.writeNode(n); err != nil {
				return nil, err
			}
			entries = append(entries, dirEntry{child: id, count: n.subtreeCount(), mbr: n.mbr()})
		}
	}
	return entries, nil
}
