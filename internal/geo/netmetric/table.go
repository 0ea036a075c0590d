package netmetric

import (
	"math"
	"sync"
	"sync/atomic"

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
//
// Release hands a finished table's rows back to a pool, so the next
// BuildTable (of any table, on any network) reuses their node vectors
// instead of allocating them.
type Table struct {
	*NetworkMetric
	rowIdx map[int32]int32 // endpoint node → index in rows
	rows   []*tableRow

	// Points the nearest-neighbour streams over this table (nn.go)
	// have discovered and emitted.
	nnPushed, nnEmitted atomic.Int64
}

// tableRow is one endpoint's sweep behind its lock.
type tableRow struct {
	mu sync.Mutex
	sweep
}

// rowPool holds the rows of released tables. A pooled row keeps its
// label vector, heap and settle-order storage; start reuses them when
// they are large enough for the network.
var rowPool sync.Pool

// BuildTable allocates a table row for each snap-edge endpoint of
// sources, with only the endpoint itself labelled and on the frontier;
// no sweep runs until a query needs it. budget caps the rows' float64
// cells, and values < 1 select DefaultTableBudget. The solver registry
// always passes 0; the parameter stays only because perfbench/ calls
// BuildTable with it. BuildTable returns nil when the source set's
// endpoint count would exceed the budget, and callers should then keep
// using point queries. Rows never build the contraction hierarchy,
// which only point queries use.
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
	t := &Table{NetworkMetric: m, rowIdx: rowIdx, rows: make([]*tableRow, len(srcs))}
	for i, v := range srcs {
		r, _ := rowPool.Get().(*tableRow)
		if r == nil {
			r = new(tableRow)
		}
		r.start(v, n)
		t.rows[i] = r
	}
	return t
}

// Release returns the table's rows to the pool BuildTable draws from.
// The table then covers no source, so a later Dist falls through to
// point queries; Release must not run concurrently with a query, and an
// NN stream over the table must not be used after it.
func (t *Table) Release() {
	for _, r := range t.rows {
		rowPool.Put(r)
	}
	t.rows, t.rowIdx = nil, nil
}

// Coverage returns the number of endpoint rows the table holds.
func (t *Table) Coverage() int { return len(t.rows) }

// Settled returns how many labels the table's rows have finalized so
// far and how many they would hold fully swept (rows × NumNodes).
func (t *Table) Settled() (settled, total int) {
	for _, r := range t.rows {
		r.mu.Lock()
		settled += len(r.order)
		r.mu.Unlock()
	}
	return settled, len(t.rows) * len(t.nodes)
}

// NNStats returns how many points the nearest-neighbour streams over
// this table have discovered (pushed onto a candidate heap) and emitted
// so far: how far the streams expanded against how much they used.
func (t *Table) NNStats() (pushed, emitted int64) {
	return t.nnPushed.Load(), t.nnEmitted.Load()
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
	row := t.rows[r]
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
