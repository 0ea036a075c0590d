package netmetric

import (
	"math"
	"sync"

	"repro/internal/geo"
)

// DefaultTableBudget is the default cap, in float64 cells, on the
// label vectors a table may hold (64 MB). A table keeps one full node
// vector per distinct snap-edge endpoint of its source set, so the cost
// is (distinct endpoints)·NumNodes cells; above the budget BuildTable
// declines and callers fall back to point queries.
const DefaultTableBudget = 1 << 23

// Table is a NetworkMetric with a provider-sourced distance table: one
// row per distinct snap-edge endpoint of the source points, each row a
// suspended single-source Dijkstra (sweep, search.go) that is advanced
// only as far as the queries ask. Dist(p, q) where p is a source (or
// shares a snap edge with one) settles q's two snap-edge endpoints on
// p's two rows and assembles the answer from their labels —
// byte-identical to the point-query value, because a sweep finalizes
// the same canonical forward labels the point searches return (see
// search.go) and the assembly mirrors pathDist expression for
// expression. A solve that reaches only the customers near its
// providers never sweeps the rest of the network. Queries from
// uncovered points fall through to the embedded metric unchanged, in
// the same p→q orientation.
//
// A Table is safe for concurrent use: each row has its own lock, held
// while a query advances it and reads its two labels.
type Table struct {
	*NetworkMetric
	rowIdx map[int32]int32 // endpoint node → index in rows
	rows   []tableRow
}

// tableRow is one endpoint's sweep behind its lock.
type tableRow struct {
	mu sync.Mutex
	sweep
}

// BuildTable allocates a table row for each snap-edge endpoint of
// sources, with only the endpoint itself labelled and on the frontier;
// no sweep runs until a query needs it. budget caps the rows' float64
// cells (values < 1 select DefaultTableBudget); BuildTable returns nil
// when the source set's endpoint count would exceed it, and callers
// should then keep using point queries. Rows never build the
// contraction hierarchy, which only point queries use.
func (m *NetworkMetric) BuildTable(sources []geo.Point, budget int) *Table {
	if budget < 1 {
		budget = DefaultTableBudget
	}
	n := len(m.nodes)
	rowIdx := make(map[int32]int32, 2*len(sources))
	var srcs []int32
	for _, p := range sources {
		for _, v := range m.edges[m.snap(p).edge] {
			if _, ok := rowIdx[v]; ok {
				continue
			}
			if (len(srcs)+1)*n > budget {
				return nil
			}
			rowIdx[v] = int32(len(srcs))
			srcs = append(srcs, v)
		}
	}
	t := &Table{NetworkMetric: m, rowIdx: rowIdx, rows: make([]tableRow, len(srcs))}
	for i, v := range srcs {
		t.rows[i].start(v, n)
	}
	return t
}

// Coverage returns the number of endpoint rows the table holds.
func (t *Table) Coverage() int { return len(t.rows) }

// Settled returns how many labels the table's rows have finalized so
// far and how many they would hold fully swept (rows × NumNodes).
func (t *Table) Settled() (settled, total int) {
	for i := range t.rows {
		r := &t.rows[i]
		r.mu.Lock()
		settled += r.settled
		r.mu.Unlock()
	}
	return settled, len(t.rows) * len(t.nodes)
}

// Dist implements geo.Metric. When p's snap-edge endpoints are covered
// the answer comes from their rows, each advanced just far enough to
// finalize q's snap-edge endpoints; otherwise it falls back to the
// embedded metric's point query with the same orientation, so mixed
// workloads stay byte-identical with the non-table run.
func (t *Table) Dist(p, q geo.Point) float64 {
	sp := t.snap(p)
	ep := t.edges[sp.edge]
	r0, ok0 := t.rowIdx[ep[0]]
	r1, ok1 := t.rowIdx[ep[1]]
	if !ok0 || !ok1 {
		return t.NetworkMetric.Dist(p, q)
	}
	sq := t.snap(q)
	eq := t.edges[sq.edge]
	return t.assembleDist(sp, sq, [2][2]float64{t.rowLabels(r0, eq), t.rowLabels(r1, eq)})
}

// rowLabels settles both of e's nodes on row r under one lock.
func (t *Table) rowLabels(r int32, e [2]int32) [2]float64 {
	row := &t.rows[r]
	row.mu.Lock()
	d := t.labels(&row.sweep, e)
	row.mu.Unlock()
	return d
}

// assembleDist computes Dist(p, q) from the snap positions and the
// node distances d[i][j] from p's snap-edge endpoint i to q's endpoint
// j. The arithmetic mirrors Dist/pathDist expression for expression —
// same terms, same association order — so the result is byte-identical
// to the point query (a row's label is the canonical forward distance,
// and the label of the row's own source is exactly 0, matching
// nodeDist's diagonal short-circuit).
func (m *NetworkMetric) assembleDist(sp, sq snapPos, d [2][2]float64) float64 {
	lp, lq := m.lengths[sp.edge], m.lengths[sq.edge]
	best := math.Inf(1)
	if sp.edge == sq.edge {
		best = math.Abs(sp.t-sq.t) * lp
	}
	pw := [2]float64{sp.t * lp, (1 - sp.t) * lp}
	qw := [2]float64{sq.t * lq, (1 - sq.t) * lq}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if v := pw[i] + d[i][j] + qw[j]; v < best {
				best = v
			}
		}
	}
	return sp.offset + best + sq.offset
}

// m2mScratch is the pooled working state of one ManyToManyInto call:
// the endpoint→row map and the rows reuse their backing storage, so a
// steady-state call allocates nothing (asserted by
// TestAllocsManyToMany). Rows are pointers so that growing the slice
// never moves a sweep another variable still refers to.
type m2mScratch struct {
	rowIdx map[int32]int32
	rows   []*sweep
}

var m2mPool = sync.Pool{New: func() any { return &m2mScratch{rowIdx: make(map[int32]int32)} }}

// row returns v's sweep, starting a fresh one from a pooled row on
// first use.
func (s *m2mScratch) row(v int32, n int) *sweep {
	if r, ok := s.rowIdx[v]; ok {
		return s.rows[r]
	}
	r := len(s.rows)
	s.rowIdx[v] = int32(r)
	if r < cap(s.rows) {
		s.rows = s.rows[:r+1]
	} else {
		s.rows = append(s.rows, nil)
	}
	if s.rows[r] == nil {
		s.rows[r] = new(sweep)
	}
	s.rows[r].start(v, n)
	return s.rows[r]
}

// ManyToMany returns the full sources×targets distance matrix with one
// sweep per distinct source snap-edge endpoint — the bulk counterpart
// of len(sources)·len(targets) Dist calls, with identical
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
// small). Each sweep settles only as far as the targets' snap-edge
// endpoints. Scratch is pooled, so repeated calls at steady state
// perform zero allocations beyond the caller's buffer.
func (m *NetworkMetric) ManyToManyInto(sources, targets []geo.Point, out []float64) []float64 {
	need := len(sources) * len(targets)
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	n := len(m.nodes)
	s := m2mPool.Get().(*m2mScratch)
	defer m2mPool.Put(s)
	clear(s.rowIdx)
	s.rows = s.rows[:0]
	for si, p := range sources {
		sp := m.snap(p)
		ep := m.edges[sp.edge]
		r0, r1 := s.row(ep[0], n), s.row(ep[1], n)
		row := out[si*len(targets) : (si+1)*len(targets)]
		for ti, q := range targets {
			sq := m.snap(q)
			eq := m.edges[sq.edge]
			row[ti] = m.assembleDist(sp, sq, [2][2]float64{m.labels(r0, eq), m.labels(r1, eq)})
		}
	}
	return out
}
