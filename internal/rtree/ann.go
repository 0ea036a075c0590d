package rtree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/hilbert"
	"repro/internal/pqueue"
)

// NNSource produces, for each of a fixed set of query points, its nearest
// neighbors one at a time in ascending distance order — the candidate
// edge stream of NIA and IDA (§3.2, §3.3). ANNSearch streams Euclidean
// neighbors from the R-tree, RefinedNN re-keys that stream into the
// order of a lower-bounded metric, and core adapts the road network's
// expansion (netmetric.NN) to it. All three report equal distances among
// the candidates already read in ascending item ID.
type NNSource interface {
	// Next returns query point qi's next nearest neighbor.
	// ok is false when P is exhausted for qi.
	Next(qi int) (item Item, dist float64, ok bool, err error)
}

// DefaultANNGroupSize is the number of Hilbert-consecutive query points
// that share one R-tree traversal in the grouped ANN search.
const DefaultANNGroupSize = 8

// ANNSearch implements the incremental all-nearest-neighbor search of
// §3.4.2: query points are grouped by Hilbert order; each group Gm owns a
// single heap Hm of R-tree entries keyed by mindist(MBR(Gm), MBR(e)), and
// every member qi keeps a candidate heap res_i keyed by distance from qi.
// A candidate is reported as qi's next NN once it is at least as close as
// every unexplored entry could be. Members share every page read, cutting
// the I/O cost relative to searching for each query alone. A group of one
// is the single-query best-first search of Hjaltason & Samet [7]; the
// DisableANN ablation and Tree.KNN run groups of one.
//
// Candidates are materialized per leaf, on demand. When a group reads a
// leaf page it records the page's items once, as a block, and pushes one
// entry per member keyed by mindist(qi, MBR(leaf)). Only a member that
// pops that entry pushes the block's points, keyed by their exact
// distance; members rarely pop most of the blocks their group reads. The
// block key is a lower bound of every point key inside it, bit for bit:
// Rect.MinDist and Point.Dist take the same coordinate differences and
// square, add and Sqrt them, and every step is monotone under IEEE
// rounding. So a member reports a point exactly when the eager scheme —
// every leaf point pushed for every member — would, and the group reads
// the same pages in the same order.
//
// Equal distances among the candidates read so far are reported in
// ascending item ID, the tie rule of netmetric.NN. A run of equal
// distances can still straddle a page read: the group-heap test admits a
// candidate whose distance equals the next page's key, and that page may
// hold a smaller ID at the same distance.
type ANNSearch struct {
	t       *Tree
	queries []geo.Point
	byQuery []*annGroup
	members []annMember
	leafCap int32 // items per leaf page; point handles are block·leafCap + index
	pushes  int   // candidate-heap pushes, blocks and points alike (a work count tests check)
}

// annMember is one query point's candidate state. Its heap holds leaf
// blocks (handle ^b for block b of its group) and points (handle
// b·leafCap + i for item i of block b).
type annMember struct {
	res pqueue.Heap
	// ties holds the point handles at distance tieKey not yet reported,
	// in descending item ID order, so the smallest ID pops first.
	ties   []int32
	tieKey float64
}

type annGroup struct {
	mbr     geo.Rect
	members []int
	heap    pqueue.Heap // Hm; handles index pages
	pages   []dirEntry  // each page with the MBR its parent records for it
	blocks  [][]Item    // the items of every leaf page read, in read order
}

// wholePlane stands in for the root's MBR, which no directory entry
// records: every mindist to it is 0, a valid lower bound.
var wholePlane = geo.Rect{Min: geo.Point{X: math.Inf(-1), Y: math.Inf(-1)}, Max: geo.Point{X: math.Inf(1), Y: math.Inf(1)}}

func (g *annGroup) pushPage(e dirEntry) {
	g.heap.Push(int32(len(g.pages)), g.mbr.MinDistRect(e.mbr))
	g.pages = append(g.pages, e)
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
		members: make([]annMember, len(queries)),
		leafCap: int32(LeafCapacity(t.buf.Store().PageSize())),
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
			g.pushPage(dirEntry{child: t.root, mbr: wholePlane})
		}
	}
	return s
}

// Next implements NNSource (Algorithm 6 of the paper).
func (s *ANNSearch) Next(qi int) (Item, float64, bool, error) {
	g, m := s.byQuery[qi], &s.members[qi]
	added := false
	for {
		// bound is the largest key qi may pop without a page read: the
		// group heap's top while no tie is pending (no unexplored entry
		// can hold anything closer), else the pending ties' distance.
		bound := math.Inf(1)
		if len(m.ties) > 0 {
			bound = m.tieKey
		} else if g.heap.Len() > 0 {
			bound = g.heap.Peek().Key
		}
		if m.res.Len() > 0 && m.res.Peek().Key <= bound {
			top := m.res.Pop()
			if top.H < 0 {
				s.expandBlock(g, m, s.queries[qi], ^top.H)
			} else {
				m.ties, m.tieKey, added = append(m.ties, top.H), top.Key, true
			}
			continue
		}
		if n := len(m.ties); n > 0 {
			if added && n > 1 {
				slices.SortFunc(m.ties, func(a, b int32) int { return cmp.Compare(s.item(g, b).ID, s.item(g, a).ID) })
			}
			h := m.ties[n-1]
			m.ties = m.ties[:n-1]
			return s.item(g, h), m.tieKey, true, nil
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

func (s *ANNSearch) item(g *annGroup, h int32) Item {
	return g.blocks[h/s.leafCap][h%s.leafCap]
}

// expand pops the closest R-tree entry from the group heap. Directory
// entries are replaced by their children; a leaf page becomes a block,
// pushed once onto every member's candidate heap.
func (s *ANNSearch) expand(g *annGroup) error {
	e := g.pages[g.heap.Pop().H]
	n, err := s.t.readNode(e.child)
	if err != nil {
		return err
	}
	if n.leaf {
		b := int32(len(g.blocks))
		g.blocks = append(g.blocks, n.items)
		for _, qk := range g.members {
			s.members[qk].res.Push(^b, e.mbr.MinDist(s.queries[qk]))
		}
		s.pushes += len(g.members)
		return nil
	}
	for _, c := range n.childs {
		g.pushPage(c)
	}
	return nil
}

// expandBlock pushes the points of block b onto m's candidate heap,
// keyed by their exact distance from q.
func (s *ANNSearch) expandBlock(g *annGroup, m *annMember, q geo.Point, b int32) {
	base := b * s.leafCap
	for i, item := range g.blocks[b] {
		m.res.Push(base+int32(i), q.Dist(item.Pt))
	}
	s.pushes += len(g.blocks[b])
}

// ensure interface compliance
var _ NNSource = (*ANNSearch)(nil)
