package netmetric

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/pqueue"
)

// NN streams, for each of a fixed set of source points, the points of a
// PointIndex in ascending network distance: incremental network
// expansion (INE; Papadias, Zhang, Mamoulis & Tao, VLDB 2003), the
// road-network form of incremental nearest-neighbour search. Source q
// expands outward along its two table rows (the sweeps from its snap
// edge's endpoints). When a row settles node v, every indexed point on
// an edge at v is discovered and keyed by its exact distance — the
// canonical value Table.Dist returns for (source, point), assembled
// from the row labels the same way. A discovered point is final once
// its key is below what any undiscovered point could cost: the
// source's offset plus, over both rows, the walk to that row's endpoint
// plus the label of the next node the row has yet to expand (settle
// order is label order, so no unexpanded node is closer). Equal
// distances are emitted in ascending id order.
//
// An NN reads the table's rows under their locks, so several NNs over
// one table may run concurrently (a sharded solve's regions do); one
// NN serves one goroutine.
type NN struct {
	t    *Table
	x    *PointIndex
	srcs []nnSource
	// seen has bit q·len(x.edges)+k set once source q discovered the
	// points on dense edge k.
	seen []uint64
}

// nnSource is one source's expansion state.
type nnSource struct {
	sp     snapPos
	rows   [2]int32   // table rows of the snap edge's endpoints
	pw     [2]float64 // walk from the source to each endpoint along its edge
	cursor [2]int     // next position to expand in each row's settle order
	cands  pqueue.Heap
	// ties holds the handles of equal-distance points not yet emitted,
	// in descending id order, so the smallest id pops first.
	ties   []int32
	tieKey float64
}

// NN starts a nearest-neighbour stream from each source over x. It
// returns nil when x indexes another road network or a source's snap
// edge endpoints have no rows in the table (the table was built for
// other sources); callers then fall back to another NN path.
func (t *Table) NN(sources []geo.Point, x *PointIndex) *NN {
	if x == nil || !x.m.SameNetwork(t.NetworkMetric) {
		return nil
	}
	s := &NN{t: t, x: x, srcs: make([]nnSource, len(sources))}
	s.seen = make([]uint64, (len(sources)*len(x.edges)+63)/64)
	for q, p := range sources {
		sp := t.snap(p)
		ep := t.edges[sp.edge]
		r0, ok0 := t.rowIdx[ep[0]]
		r1, ok1 := t.rowIdx[ep[1]]
		if !ok0 || !ok1 {
			return nil
		}
		lp := t.lengths[sp.edge]
		src := &s.srcs[q]
		*src = nnSource{sp: sp, rows: [2]int32{r0, r1}, pw: [2]float64{sp.t * lp, (1 - sp.t) * lp}}
		// Points on the source's own edge can be closer than both
		// endpoints, which the expansion bound does not cover: discover
		// them up front.
		if k := x.denseEdge(sp.edge); k >= 0 {
			s.discover(q, k)
		}
	}
	return s
}

// Next returns source q's next nearest point: its position in the
// index (see PointIndex.Point) and its network distance. ok is false
// once every point has been returned.
func (s *NN) Next(q int) (i int, dist float64, ok bool) {
	src := &s.srcs[q]
	for {
		if n := len(src.ties); n > 0 {
			h := src.ties[n-1]
			src.ties = src.ties[:n-1]
			s.t.nnEmitted.Add(1)
			return int(h), src.tieKey, true
		}
		bound, row, v := s.frontier(src)
		if src.cands.Len() > 0 && src.cands.Peek().Key < bound {
			s.popTies(src)
			continue
		}
		if row < 0 {
			return 0, 0, false // both rows swept and every point emitted
		}
		src.cursor[row]++
		for _, k := range s.x.nodeEdges[s.x.nodeFirst[v]:s.x.nodeFirst[v+1]] {
			s.discover(q, int(k))
		}
	}
}

// frontier returns the least distance an undiscovered point can have
// from src, together with the row to expand next and the node at its
// cursor; row is -1 (and the bound +Inf) once both rows are exhausted.
func (s *NN) frontier(src *nnSource) (bound float64, row int, v int32) {
	bound, row = math.Inf(1), -1
	for i := 0; i < 2; i++ {
		u, label, ok := s.t.rowAt(src.rows[i], src.cursor[i])
		if ok && src.pw[i]+label < bound {
			bound, row, v = src.pw[i]+label, i, u
		}
	}
	return src.sp.offset + bound, row, v
}

// discover pushes the points on dense edge k onto source q's candidate
// heap, keyed by their exact distance, unless q has already seen them.
func (s *NN) discover(q, k int) {
	bit := q*len(s.x.edges) + k
	if s.seen[bit/64]&(1<<(bit%64)) != 0 {
		return
	}
	s.seen[bit/64] |= 1 << (bit % 64)
	src := &s.srcs[q]
	e := s.t.edges[s.x.edges[k]]
	d := [2][2]float64{s.t.rowLabels(src.rows[0], e), s.t.rowLabels(src.rows[1], e)}
	lo, hi := s.x.first[k], s.x.first[k+1]
	for j := lo; j < hi; j++ {
		src.cands.Push(j, s.t.assembleDist(src.sp, s.x.pts[j].snap, d))
	}
	s.t.nnPushed.Add(int64(hi - lo))
}

// popTies moves every candidate at the heap's smallest distance onto
// the tie stack, largest id first.
func (s *NN) popTies(src *nnSource) {
	top := src.cands.Pop()
	src.tieKey = top.Key
	src.ties = append(src.ties[:0], top.H)
	for src.cands.Len() > 0 && src.cands.Peek().Key == top.Key {
		src.ties = append(src.ties, src.cands.Pop().H)
	}
	if len(src.ties) > 1 {
		slices.SortFunc(src.ties, func(a, b int32) int { return cmp.Compare(s.x.pts[b].id, s.x.pts[a].id) })
	}
}

// rowAt returns the node at position c of row r's settle order and its
// label, advancing the row's sweep as far as that needs; ok is false
// when the sweep completes with fewer settled nodes.
func (t *Table) rowAt(r int32, c int) (v int32, label float64, ok bool) {
	row := t.rows[r]
	row.mu.Lock()
	defer row.mu.Unlock()
	for len(row.order) <= c {
		if !t.step(&row.sweep) {
			return 0, 0, false
		}
	}
	v = row.order[c]
	return v, row.dist[v], true
}
