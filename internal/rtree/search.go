package rtree

import (
	"errors"

	"repro/internal/geo"
	"repro/internal/storage"
)

// RangeSearch returns all points within Euclidean distance r of center
// (boundary inclusive) — the T-range search RIA issues around each
// service provider (§3.1).
func (t *Tree) RangeSearch(center geo.Point, r float64) ([]Item, error) {
	return t.AnnularRange(center, -1, r)
}

// AnnularRange returns all points p with rlo < dist(center, p) <= rhi,
// the annular search RIA uses when it extends its radius from T-θ to T
// (§3.1). Pass rlo < 0 for a plain range search.
func (t *Tree) AnnularRange(center geo.Point, rlo, rhi float64) ([]Item, error) {
	var out []Item
	err := t.annular(t.root, center, rlo, rhi, &out)
	return out, err
}

func (t *Tree) annular(id storage.PageID, center geo.Point, rlo, rhi float64, out *[]Item) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if n.leaf {
		for _, it := range n.items {
			d := center.Dist(it.Pt)
			if d > rlo && d <= rhi {
				*out = append(*out, it)
			}
		}
		return nil
	}
	for _, c := range n.childs {
		// Prune subtrees entirely outside the annulus.
		if c.mbr.MinDist(center) > rhi {
			continue
		}
		if rlo >= 0 && c.mbr.MaxDist(center) <= rlo {
			continue
		}
		if err := t.annular(c.child, center, rlo, rhi, out); err != nil {
			return err
		}
	}
	return nil
}

// Entry describes an R-tree entry (a subtree) to traversal clients. CA
// partitioning (§4.2) walks entries top-down, descending those whose MBR
// diagonal exceeds δ; Count supplies representative weights without
// touching the subtree's pages.
type Entry struct {
	MBR    geo.Rect
	Count  int  // number of points in the subtree
	Leaf   bool // whether the page is a leaf
	page   storage.PageID
	height int // height of the subtree rooted at page (1 = leaf)
}

// RootEntry returns the entry describing the whole tree.
func (t *Tree) RootEntry() (Entry, error) {
	n, err := t.readNode(t.root)
	if err != nil {
		return Entry{}, err
	}
	return Entry{
		MBR:    n.mbr(),
		Count:  n.subtreeCount(),
		Leaf:   n.leaf,
		page:   t.root,
		height: t.height,
	}, nil
}

// Children expands a non-leaf entry into its child entries.
func (t *Tree) Children(e Entry) ([]Entry, error) {
	n, err := t.readNode(e.page)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(n.childs))
	for _, c := range n.childs {
		out = append(out, Entry{
			MBR:    c.mbr,
			Count:  c.count,
			Leaf:   e.height == 2,
			page:   c.child,
			height: e.height - 1,
		})
	}
	return out, nil
}

var errOnlyLeaf = errors.New("rtree: operation requires a leaf entry")

// LeafItems returns the points stored in a leaf entry.
func (t *Tree) LeafItems(e Entry) ([]Item, error) {
	n, err := t.readNode(e.page)
	if err != nil {
		return nil, err
	}
	if !n.leaf {
		return nil, errOnlyLeaf
	}
	return n.items, nil
}

// CollectItems returns every point in the subtree of an entry. CA's
// refinement phase (§4.3) uses it to materialize the actual customers of
// a partition group, paying the corresponding page reads.
func (t *Tree) CollectItems(e Entry) ([]Item, error) {
	if e.Leaf {
		return t.LeafItems(e)
	}
	kids, err := t.Children(e)
	if err != nil {
		return nil, err
	}
	var out []Item
	for _, k := range kids {
		items, err := t.CollectItems(k)
		if err != nil {
			return nil, err
		}
		out = append(out, items...)
	}
	return out, nil
}

// All returns every indexed point (by full traversal).
func (t *Tree) All() ([]Item, error) {
	out := make([]Item, 0, t.size)
	err := t.all(t.root, &out)
	return out, err
}

func (t *Tree) all(id storage.PageID, out *[]Item) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if n.leaf {
		*out = append(*out, n.items...)
		return nil
	}
	for _, c := range n.childs {
		if err := t.all(c.child, out); err != nil {
			return err
		}
	}
	return nil
}

// KNN returns the k points of the tree closest to q in ascending
// distance order (fewer if the tree holds fewer points) — the K-nearest
// neighbor query of §2.3, evaluated with the best-first algorithm [7]
// as an ANNSearch whose only member is q.
func (t *Tree) KNN(q geo.Point, k int) ([]Item, error) {
	src := NewANNSearch(t, []geo.Point{q}, geo.Rect{}, 1)
	out := make([]Item, 0, k)
	for len(out) < k {
		item, _, ok, err := src.Next(0)
		if err != nil || !ok {
			return out, err
		}
		out = append(out, item)
	}
	return out, nil
}
