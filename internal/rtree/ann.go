package rtree

import (
	"repro/internal/geo"
	"repro/internal/hilbert"
	"repro/internal/pqueue"
	"repro/internal/storage"
)

// NNSource produces, for each of a fixed set of query points, its nearest
// neighbors one at a time in ascending distance order. It abstracts the
// two ways the CCA algorithms fetch candidate edges from the R-tree:
// independent per-provider NN iterators, or the shared-I/O incremental
// all-nearest-neighbor search of §3.4.2.
type NNSource interface {
	// Next returns query point qi's next nearest neighbor.
	// ok is false when P is exhausted for qi.
	Next(qi int) (item Item, dist float64, ok bool, err error)
}

// PerQueryNN is the straightforward NNSource: one independent best-first
// iterator per query point. Simple, but nearby query points re-read the
// same pages, inflating I/O. Used as the ablation baseline for ANN.
type PerQueryNN struct {
	iters []*NNIterator
}

// NewPerQueryNN builds independent NN iterators over t for each query.
func NewPerQueryNN(t *Tree, queries []geo.Point) *PerQueryNN {
	s := &PerQueryNN{iters: make([]*NNIterator, len(queries))}
	for i, q := range queries {
		s.iters[i] = t.NewNNIterator(q)
	}
	return s
}

// Next implements NNSource.
func (s *PerQueryNN) Next(qi int) (Item, float64, bool, error) {
	it, d, ok := s.iters[qi].Next()
	return it, d, ok, s.iters[qi].Err()
}

// DefaultANNGroupSize is the number of Hilbert-consecutive query points
// that share one R-tree traversal in the grouped ANN search.
const DefaultANNGroupSize = 8

// ANNSearch implements the incremental all-nearest-neighbor search of
// §3.4.2: query points are grouped by Hilbert order; each group Gm owns a
// single heap Hm of R-tree entries keyed by mindist(MBR(Gm), MBR(e)), and
// every member qi keeps a candidate heap res_i of points keyed by
// dist(qi, p). A candidate is reported as qi's next NN once it is at
// least as close as every unexplored entry could be. Members share every
// page read, cutting the I/O cost relative to PerQueryNN.
type ANNSearch struct {
	t       *Tree
	queries []geo.Point
	groups  []*annGroup
	byQuery []*annGroup
	res     []pqueue.Heap // candidate heap per query point; handles index its group's items
}

type annGroup struct {
	mbr     geo.Rect
	members []int
	heap    pqueue.Heap // Hm; handles index pages
	pages   []storage.PageID
	items   []Item // every leaf item read, shared by the members' candidate heaps
}

func (g *annGroup) pushPage(page storage.PageID, key float64) {
	g.heap.Push(int32(len(g.pages)), key)
	g.pages = append(g.pages, page)
}

// NewANNSearch builds the grouped searcher. groupSize <= 0 selects
// DefaultANNGroupSize. space is the data space used for Hilbert ordering.
func NewANNSearch(t *Tree, queries []geo.Point, space geo.Rect, groupSize int) *ANNSearch {
	if groupSize <= 0 {
		groupSize = DefaultANNGroupSize
	}
	s := &ANNSearch{
		t:       t,
		queries: queries,
		byQuery: make([]*annGroup, len(queries)),
		res:     make([]pqueue.Heap, len(queries)),
	}
	order := hilbert.SortByKey(queries, space)
	for start := 0; start < len(order); start += groupSize {
		end := start + groupSize
		if end > len(order) {
			end = len(order)
		}
		g := &annGroup{mbr: geo.EmptyRect()}
		for _, qi := range order[start:end] {
			g.members = append(g.members, qi)
			g.mbr = g.mbr.ExtendPoint(queries[qi])
			s.byQuery[qi] = g
		}
		if t.Size() > 0 {
			g.pushPage(t.root, 0)
		}
		s.groups = append(s.groups, g)
	}
	return s
}

// Next implements NNSource (Algorithm 6 of the paper).
func (s *ANNSearch) Next(qi int) (Item, float64, bool, error) {
	g := s.byQuery[qi]
	res := &s.res[qi]
	for {
		if res.Len() > 0 && (g.heap.Len() == 0 || res.Peek().Key <= g.heap.Peek().Key) {
			// No unexplored entry can contain anything closer to qi.
			top := res.Pop()
			return g.items[top.H], top.Key, true, nil
		}
		if g.heap.Len() == 0 {
			// Tree exhausted for this group.
			return Item{}, 0, false, nil
		}
		if err := s.expand(g); err != nil {
			return Item{}, 0, false, err
		}
	}
}

// expand pops the closest R-tree entry from the group heap. Directory
// entries are replaced by their children; leaf pages feed every member's
// candidate heap.
func (s *ANNSearch) expand(g *annGroup) error {
	n, err := s.t.readNode(g.pages[g.heap.Pop().H])
	if err != nil {
		return err
	}
	if n.leaf {
		for _, item := range n.items {
			h := int32(len(g.items))
			g.items = append(g.items, item)
			for _, qk := range g.members {
				s.res[qk].Push(h, s.queries[qk].Dist(item.Pt))
			}
		}
		return nil
	}
	for _, c := range n.childs {
		g.pushPage(c.child, g.mbr.MinDistRect(c.mbr))
	}
	return nil
}

// ensure interface compliance
var (
	_ NNSource = (*PerQueryNN)(nil)
	_ NNSource = (*ANNSearch)(nil)
)
