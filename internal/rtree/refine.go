package rtree

import (
	"cmp"
	"slices"

	"repro/internal/geo"
	"repro/internal/pqueue"
)

// RefinedNN adapts the Euclidean ANNSearch stream into one that reports
// candidates in ascending order of an arbitrary metric, provided the
// metric lower-bounds to Euclidean distance (metric.Dist(p,q) >=
// p.Dist(q), the geo.Metric contract for non-Euclidean backends — e.g.
// road-network shortest-path distance).
//
// It is the filter-and-refine step of spatial query processing: the base
// search streams candidates keyed by the cheap lower bound, and each
// lands on a per-query refinement heap under the Euclidean distance the
// base reported. The true metric distance is computed lazily, only when
// a candidate surfaces at the top of the heap; a candidate is emitted
// once its true distance is no greater than the lower bound of every
// candidate the base has not yet produced (the Euclidean key of the most
// recent base candidate) and of everything still on the heap.
//
// Equal distances go out in ascending item ID, the tie rule of ANNSearch
// and netmetric.NN: before emitting at distance d, Next resolves every
// candidate keyed at most d and emits those at exactly d by ID. A run of
// equal distances can still straddle a base pull: a candidate the base
// has not yet produced may lie at exactly d, and it comes after the run.
//
// Wrapping the shared ANN search (§3.4.2) preserves its I/O sharing: the
// refinement heaps sit on top of whatever page traversal the base does.
type RefinedNN struct {
	base   NNSource
	metric geo.Metric
	state  []refQuery
}

// refQuery is one query's refinement state. ties holds the candidates
// collected at one distance and not yet emitted, in descending
// (distance, item ID) order, so the smallest pops first.
type refQuery struct {
	pt     geo.Point
	res    pqueue.Heap // indexed refinement heap; handles index ents
	ents   []refEntry
	lastLB float64 // last lower bound the base reported
	done   bool    // the base is exhausted
	ties   []pqueue.Entry
}

// refEntry is one refinement-heap candidate: exact marks whether its
// key is the true metric distance or still a lower bound.
type refEntry struct {
	item  Item
	exact bool
}

// NewRefinedNN wraps base, re-keying its stream by metric distance. base
// must yield each query's candidates in ascending Euclidean order with
// their Euclidean distances (an ANNSearch does), and metric must satisfy
// the lower-bound contract; otherwise the emitted order is undefined.
func NewRefinedNN(base NNSource, queries []geo.Point, metric geo.Metric) *RefinedNN {
	s := &RefinedNN{base: base, metric: metric, state: make([]refQuery, len(queries))}
	for i, q := range queries {
		s.state[i] = refQuery{pt: q, res: pqueue.NewIndexed()}
	}
	return s
}

// Next implements NNSource: query qi's next neighbor in ascending metric
// distance, with the true (metric) distance returned.
func (s *RefinedNN) Next(qi int) (Item, float64, bool, error) {
	q := &s.state[qi]
	for len(q.ties) == 0 {
		if q.res.Len() > 0 && (q.done || q.res.Peek().Key <= q.lastLB) {
			// Every unseen candidate has metric distance >= its Euclidean
			// distance >= lastLB, and every heap key underestimates its
			// candidate's true distance — so once top's key is exact and
			// within the bound, top is final.
			if top := q.res.Peek(); q.ents[top.H].exact {
				q.collectTies(top.Key, s.metric)
			} else {
				q.resolve(top.H, s.metric)
			}
			continue
		}
		if q.done {
			return Item{}, 0, false, nil
		}
		item, lb, ok, err := s.base.Next(qi)
		if err != nil {
			return Item{}, 0, false, err
		}
		if !ok {
			q.done = true
			continue
		}
		q.lastLB = lb
		q.res.Push(int32(len(q.ents)), lb)
		q.ents = append(q.ents, refEntry{item: item})
	}
	top := q.ties[len(q.ties)-1]
	q.ties = q.ties[:len(q.ties)-1]
	return q.ents[top.H].item, top.Key, true, nil
}

// resolve re-keys candidate h at its true distance; it re-seats and may
// lose the top to a candidate with a smaller bound.
func (q *refQuery) resolve(h int32, metric geo.Metric) {
	q.ents[h].exact = true
	q.res.Update(h, metric.Dist(q.pt, q.ents[h].item.Pt))
}

// collectTies moves the exact top of the heap, at distance d, onto the
// tie stack with every other candidate keyed at most d, resolving each
// bound on the way. Under the lower-bound contract they all lie at d; a
// metric that undercuts a Euclidean key by an ulp can add a closer one,
// and the stack emits it first.
func (q *refQuery) collectTies(d float64, metric geo.Metric) {
	for q.res.Len() > 0 && q.res.Peek().Key <= d {
		if h := q.res.Peek().H; !q.ents[h].exact {
			q.resolve(h, metric)
			continue
		}
		q.ties = append(q.ties, q.res.Pop())
	}
	slices.SortFunc(q.ties, func(a, b pqueue.Entry) int {
		return cmp.Or(cmp.Compare(b.Key, a.Key), cmp.Compare(q.ents[b.H].item.ID, q.ents[a.H].item.ID))
	})
}

// ensure interface compliance
var _ NNSource = (*RefinedNN)(nil)
