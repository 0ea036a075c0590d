package rtree

import (
	"container/heap"

	"repro/internal/geo"
	"repro/internal/hilbert"
	"repro/internal/pqueue"
	"repro/internal/storage"
)

// eagerANN is the grouped ANN search as this package shipped it before
// leaf blocks: every point of every leaf page a group reads is pushed,
// with its exact distance, onto the candidate heap of every member. Its
// candidates pop in (distance, item ID) order, the tie rule ANNSearch
// keeps. FuzzANNSearch replays every interleaving of Next calls against
// it, so ANNSearch must reproduce its stream, its page reads and its
// faults exactly.
type eagerANN struct {
	t       *Tree
	queries []geo.Point
	byQuery []*eagerGroup
	res     []candHeap
	pushes  int
}

type eagerGroup struct {
	mbr     geo.Rect
	members []int
	heap    pqueue.Heap // handles index pages
	pages   []storage.PageID
	reads   int // leaf and directory pages read so far
}

func (g *eagerGroup) pushPage(page storage.PageID, key float64) {
	g.heap.Push(int32(len(g.pages)), key)
	g.pages = append(g.pages, page)
}

func newEagerANN(t *Tree, queries []geo.Point, space geo.Rect, groupSize int) *eagerANN {
	if groupSize <= 0 {
		groupSize = DefaultANNGroupSize
	}
	s := &eagerANN{
		t:       t,
		queries: queries,
		byQuery: make([]*eagerGroup, len(queries)),
		res:     make([]candHeap, len(queries)),
	}
	order := hilbert.SortByKey(queries, space)
	for start := 0; start < len(order); start += groupSize {
		g := &eagerGroup{mbr: geo.EmptyRect()}
		for _, qi := range order[start:min(start+groupSize, len(order))] {
			g.members = append(g.members, qi)
			g.mbr = g.mbr.ExtendPoint(queries[qi])
			s.byQuery[qi] = g
		}
		if t.Size() > 0 {
			g.pushPage(t.root, 0)
		}
	}
	return s
}

func (s *eagerANN) Next(qi int) (Item, float64, bool, error) {
	g := s.byQuery[qi]
	res := &s.res[qi]
	for {
		if res.Len() > 0 && (g.heap.Len() == 0 || (*res)[0].dist <= g.heap.Peek().Key) {
			c := heap.Pop(res).(cand)
			return c.item, c.dist, true, nil
		}
		if g.heap.Len() == 0 {
			return Item{}, 0, false, nil
		}
		n, err := s.t.readNode(g.pages[g.heap.Pop().H])
		if err != nil {
			return Item{}, 0, false, err
		}
		g.reads++
		if n.leaf {
			for _, item := range n.items {
				for _, qk := range g.members {
					heap.Push(&s.res[qk], cand{s.queries[qk].Dist(item.Pt), item})
				}
			}
			s.pushes += len(n.items) * len(g.members)
			continue
		}
		for _, c := range n.childs {
			g.pushPage(c.child, g.mbr.MinDistRect(c.mbr))
		}
	}
}

type cand struct {
	dist float64
	item Item
}

// candHeap is a container/heap min-heap on (dist, item ID).
type candHeap []cand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].item.ID < h[j].item.ID
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(cand)) }
func (h *candHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}
