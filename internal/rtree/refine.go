package rtree

import (
	"repro/internal/geo"
	"repro/internal/pqueue"
)

// RefinedNN adapts an NNSource that reports candidates in ascending
// *Euclidean* order into one that reports them in ascending order of an
// arbitrary metric, provided the metric lower-bounds to Euclidean
// distance (metric.Dist(p,q) >= p.Dist(q), the geo.Metric contract for
// non-Euclidean backends — e.g. road-network shortest-path distance).
//
// It is the filter-and-refine step of spatial query processing: the base
// source streams candidates keyed by the cheap lower bound, and each
// lands on a per-query refinement heap under the Euclidean distance the
// base reported. The true metric distance is computed lazily, only when
// a candidate surfaces at the top of the heap; a candidate is emitted
// once its true distance is no greater than the lower bound of every
// candidate the base source has not yet produced (the Euclidean key of
// the most recent base candidate) and of everything still on the heap.
//
// Wrapping the shared ANN search (§3.4.2) preserves its I/O sharing: the
// refinement heaps sit on top of whatever page traversal the base does.
type RefinedNN struct {
	base      NNSource
	queries   []geo.Point
	metric    geo.Metric
	res       []pqueue.Heap // indexed refinement heap per query; handles index ents
	ents      [][]refEntry
	lastLB    []float64 // last lower bound the base reported per query
	exhausted []bool
}

// refEntry is one refinement-heap candidate: exact marks whether its
// key is the true metric distance or still a lower bound.
type refEntry struct {
	item  Item
	exact bool
}

// NewRefinedNN wraps base, re-keying its stream by metric distance. base
// must yield each query's candidates in ascending Euclidean order with
// their Euclidean distances (both PerQueryNN and ANNSearch do), and
// metric must satisfy the lower-bound contract; otherwise the emitted
// order is undefined.
func NewRefinedNN(base NNSource, queries []geo.Point, metric geo.Metric) *RefinedNN {
	s := &RefinedNN{
		base:      base,
		queries:   queries,
		metric:    metric,
		res:       make([]pqueue.Heap, len(queries)),
		ents:      make([][]refEntry, len(queries)),
		lastLB:    make([]float64, len(queries)),
		exhausted: make([]bool, len(queries)),
	}
	for i := range s.res {
		s.res[i] = pqueue.NewIndexed()
	}
	return s
}

// Next implements NNSource: query qi's next neighbor in ascending metric
// distance, with the true (metric) distance returned.
func (s *RefinedNN) Next(qi int) (Item, float64, bool, error) {
	h := &s.res[qi]
	for {
		if h.Len() > 0 && (s.exhausted[qi] || h.Peek().Key <= s.lastLB[qi]) {
			// Every unseen candidate has metric distance >= its Euclidean
			// distance >= lastLB, and every heap key underestimates its
			// candidate's true distance — so once top's key is exact and
			// within the bound, top is final.
			top := h.Peek()
			e := &s.ents[qi][top.H]
			if e.exact {
				h.Pop()
				return e.item, top.Key, true, nil
			}
			// Resolve the surfacing candidate to its true distance in
			// place; it re-seats and may lose the top to a candidate
			// with a smaller bound.
			e.exact = true
			h.Update(top.H, s.metric.Dist(s.queries[qi], e.item.Pt))
			continue
		}
		if s.exhausted[qi] {
			return Item{}, 0, false, nil
		}
		item, lb, ok, err := s.base.Next(qi)
		if err != nil {
			return Item{}, 0, false, err
		}
		if !ok {
			s.exhausted[qi] = true
			continue
		}
		s.lastLB[qi] = lb
		h.Push(int32(len(s.ents[qi])), lb)
		s.ents[qi] = append(s.ents[qi], refEntry{item: item})
	}
}

// ensure interface compliance
var _ NNSource = (*RefinedNN)(nil)
