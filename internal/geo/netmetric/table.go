package netmetric

import (
	"math"
	"sync"

	"repro/internal/geo"
)

// DefaultTableBudget is the default cap, in float64 cells, on the
// distance vectors a bulk precompute may materialize (64 MB). A table
// needs one full node vector per distinct snap-edge endpoint of its
// source set, so the cost is (distinct endpoints)·NumNodes cells; above
// the budget BuildTable declines and callers fall back to point queries.
const DefaultTableBudget = 1 << 23

// Table is a NetworkMetric with a provider-sourced bulk distance table:
// one plain single-source Dijkstra sweep (sssp) per distinct snap-edge
// endpoint of the source points, stored as dense node vectors. Dist(p, q) where p is a source
// (or shares a snap edge with one) assembles the answer from the
// vectors in O(1) — byte-identical to the point-query value, because
// the sweeps compute the same canonical forward labels the point
// searches return (see search.go) and the assembly mirrors pathDist
// expression for expression. Queries from uncovered points fall through
// to the embedded metric unchanged, in the same p→q orientation.
//
// A Table is as concurrency-safe as its NetworkMetric: the vectors are
// immutable after BuildTable.
type Table struct {
	*NetworkMetric
	vecIdx map[int32]int32 // endpoint node → row index in vecs
	vecs   []float64       // row-major, NumNodes() cells per row
}

// BuildTable precomputes distance vectors for the snap-edge endpoints
// of sources. budget caps the materialized float64 cells (values < 1
// select DefaultTableBudget); BuildTable returns nil when the source
// set's endpoint count would exceed it, and callers should then keep
// using point queries. The sweeps never build the contraction
// hierarchy, which only point queries use. They run on the calling
// goroutine; for the
// solver integration that places the build cost inside the solve's
// measured CPU time, where it belongs.
func (m *NetworkMetric) BuildTable(sources []geo.Point, budget int) *Table {
	if budget < 1 {
		budget = DefaultTableBudget
	}
	n := len(m.nodes)
	t := &Table{NetworkMetric: m, vecIdx: make(map[int32]int32, 2*len(sources))}
	var h nheap
	for _, p := range sources {
		sp := m.snap(p)
		for _, v := range m.edges[sp.edge] {
			if _, ok := t.vecIdx[v]; ok {
				continue
			}
			if (len(t.vecIdx)+1)*n > budget {
				return nil
			}
			t.vecIdx[v] = int32(len(t.vecIdx))
			t.vecs = append(t.vecs, make([]float64, n)...)
			m.sssp(v, t.vecs[len(t.vecs)-n:], &h)
		}
	}
	return t
}

// Coverage returns the number of endpoint vectors the table holds.
func (t *Table) Coverage() int { return len(t.vecIdx) }

// Dist implements geo.Metric. When p's snap-edge endpoints are covered
// the answer comes from the table in O(1); otherwise it falls back to
// the embedded metric's point query with the same orientation, so mixed
// workloads stay byte-identical with the non-table run.
func (t *Table) Dist(p, q geo.Point) float64 {
	sp := t.snap(p)
	ep := t.edges[sp.edge]
	r0, ok0 := t.vecIdx[ep[0]]
	r1, ok1 := t.vecIdx[ep[1]]
	if !ok0 || !ok1 {
		return t.NetworkMetric.Dist(p, q)
	}
	n := len(t.nodes)
	sq := t.snap(q)
	return t.assembleDist(sp, t.vecs[int(r0)*n:int(r0)*n+n], t.vecs[int(r1)*n:int(r1)*n+n], sq)
}

// assembleDist computes Dist(p, q) from p's snap position and the two
// distance vectors of p's snap-edge endpoints. The arithmetic mirrors
// Dist/pathDist expression for expression — same terms, same
// association order — so the result is byte-identical to the point
// query (row[v] is the canonical forward label, and row[endpoint
// itself] is exactly 0, matching nodeDist's diagonal short-circuit).
func (m *NetworkMetric) assembleDist(sp snapPos, row0, row1 []float64, sq snapPos) float64 {
	eq := m.edges[sq.edge]
	lp, lq := m.lengths[sp.edge], m.lengths[sq.edge]
	best := math.Inf(1)
	if sp.edge == sq.edge {
		best = math.Abs(sp.t-sq.t) * lp
	}
	pw := [2]float64{sp.t * lp, (1 - sp.t) * lp}
	qw := [2]float64{sq.t * lq, (1 - sq.t) * lq}
	rows := [2][]float64{row0, row1}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if d := pw[i] + rows[i][eq[j]] + qw[j]; d < best {
				best = d
			}
		}
	}
	return sp.offset + best + sq.offset
}

// m2mScratch is the pooled working state of one ManyToManyInto call:
// the endpoint→row map, the vector arena and the sweep heap all reuse
// their backing storage, so a steady-state bulk sweep allocates nothing
// (asserted by TestAllocsManyToMany).
type m2mScratch struct {
	vecIdx map[int32]int32
	vecs   []float64
	heap   nheap
}

var m2mPool = sync.Pool{New: func() any { return &m2mScratch{vecIdx: make(map[int32]int32)} }}

// ManyToMany returns the full sources×targets distance matrix with one
// single-source sweep per distinct source snap-edge endpoint — the bulk
// counterpart of len(sources)·len(targets) Dist calls, with identical
// (byte-for-byte) results.
func (m *NetworkMetric) ManyToMany(sources, targets []geo.Point) [][]float64 {
	flat := m.ManyToManyInto(sources, targets, make([]float64, len(sources)*len(targets)))
	out := make([][]float64, len(sources))
	for i := range out {
		out[i] = flat[i*len(targets) : (i+1)*len(targets)]
	}
	return out
}

// ManyToManyInto is ManyToMany into a caller-provided flat buffer
// (row-major, len(sources)·len(targets) cells; reallocated only if too
// small). Scratch is pooled, so repeated calls at steady state perform
// zero allocations beyond the caller's buffer.
func (m *NetworkMetric) ManyToManyInto(sources, targets []geo.Point, out []float64) []float64 {
	need := len(sources) * len(targets)
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	n := len(m.nodes)
	s := m2mPool.Get().(*m2mScratch)
	defer m2mPool.Put(s)
	clear(s.vecIdx)
	s.vecs = s.vecs[:0]
	for si, p := range sources {
		sp := m.snap(p)
		ep := m.edges[sp.edge]
		// Ensure both endpoint vectors exist before slicing into the
		// arena: a sweep may grow (and so reallocate) s.vecs.
		var ri [2]int32
		for k, v := range ep {
			r, ok := s.vecIdx[v]
			if !ok {
				r = int32(len(s.vecIdx))
				s.vecIdx[v] = r
				for cap(s.vecs) < int(r+1)*n {
					s.vecs = append(s.vecs[:cap(s.vecs)], 0)
				}
				s.vecs = s.vecs[:int(r+1)*n]
				m.sssp(v, s.vecs[int(r)*n:int(r+1)*n], &s.heap)
			}
			ri[k] = r
		}
		rows := [2][]float64{
			s.vecs[int(ri[0])*n : int(ri[0]+1)*n],
			s.vecs[int(ri[1])*n : int(ri[1]+1)*n],
		}
		row := out[si*len(targets) : (si+1)*len(targets)]
		for ti, q := range targets {
			row[ti] = m.assembleDist(sp, rows[0], rows[1], m.snap(q))
		}
	}
	return out
}
