package netmetric

import (
	"math"
	"sync"

	"repro/internal/geo"
)

// Landmarks serve one purpose: LowerBound, the admissible bound
// rtree.RefinedNN orders its exact NN refinement by. Point queries never
// read them (they run the hierarchy or plain Dijkstra, see searchDist).

// DefaultLandmarks is the landmark count automatic mode selects for
// mid-sized networks. Eight farthest-point landmarks are the classic
// sweet spot for planar road networks: enough directional coverage
// that the triangle lower bound is tight along most query axes, cheap
// enough that preprocessing stays a handful of single-source sweeps.
const DefaultLandmarks = 8

// AutoLandmarks returns the landmark count automatic mode (the
// default, or SetLandmarks with a negative count) selects for a
// network of n nodes. Small networks need little directional coverage
// — each sweep is cheap but so is the refinement it tightens — while
// large ones amortize more landmarks over far more NN refinement.
// The middle band keeps DefaultLandmarks, so the benchmarked 128-grid
// workloads are unchanged by auto-tuning.
func AutoLandmarks(n int) int {
	switch {
	case n < 4096:
		return 4
	case n < 65536:
		return DefaultLandmarks
	default:
		return 16
	}
}

// landmarkState holds the landmark preprocessing output: the chosen
// landmark nodes and, for every network node, its shortest-path
// distance to each landmark. Vectors are stored node-major (byNode[v*k+l] = d(L_l, v)),
// so one lower-bound evaluation scans two contiguous k-strides.
// Immutable after construction; shared without locks.
type landmarkState struct {
	k      int
	nodes  []int32
	byNode []float64
}

// lbNodes returns the landmark (ALT) lower bound on the shortest-path
// distance between nodes a and b: max over landmarks L of
// |d(L,a) − d(L,b)|. Admissible and consistent by the triangle
// inequality on node distances (FuzzLandmarkBound pins both).
func (ls *landmarkState) lbNodes(a, b int32) float64 {
	if a == b {
		return 0
	}
	k := ls.k
	da := ls.byNode[int(a)*k : int(a)*k+k]
	db := ls.byNode[int(b)*k : int(b)*k+k]
	lb := 0.0
	for i, x := range da {
		d := x - db[i]
		if d < 0 {
			d = -d
		}
		if d > lb {
			lb = d
		}
	}
	return lb
}

// SetLandmarks configures the landmark count behind LowerBound: 0 keeps
// the bound Euclidean, positive counts override, negative values
// restore automatic selection (AutoLandmarks by node count, the
// default). Landmarks only tighten the NN-refinement lower bound; they
// never change a distance or the point-query search. Like SetCacheCapacity it must run during setup,
// before the metric is shared across goroutines: it drops any built
// landmark state without synchronization. Counts larger than the node
// count are clamped at build time.
func (m *NetworkMetric) SetLandmarks(k int) {
	if k < 0 {
		k = -1
	}
	m.lmCount = k
	m.lmOnce = new(sync.Once)
	m.lm = nil
}

// Landmarks returns the effective landmark count (0 when disabled),
// with automatic mode resolved against the network size.
func (m *NetworkMetric) Landmarks() int {
	if m.lmCount < 0 {
		return AutoLandmarks(len(m.nodes))
	}
	return m.lmCount
}

// landmarks returns the lazily built landmark state, or nil when
// disabled. The build runs at most once per configuration; concurrent
// first callers block on the same sync.Once, so a metric shared across
// engine workers pays the preprocessing exactly once.
func (m *NetworkMetric) landmarks() *landmarkState {
	k := m.Landmarks()
	if k <= 0 {
		return nil
	}
	m.lmOnce.Do(func() { m.lm = m.buildLandmarks(k) })
	return m.lm
}

// buildLandmarks runs farthest-point landmark selection: the first
// landmark is the node farthest from node 0, and each subsequent one
// maximizes the distance to the already-chosen set. Every selection's
// single-source sweep doubles as that landmark's distance vector, so
// preprocessing is k+1 full Dijkstras total. The graph is connected
// (virtual bridges), so every stored distance is finite.
func (m *NetworkMetric) buildLandmarks(k int) *landmarkState {
	n := len(m.nodes)
	if k > n {
		k = n
	}
	ls := &landmarkState{
		k:      k,
		nodes:  make([]int32, 0, k),
		byNode: make([]float64, k*n),
	}
	var sw sweep
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	m.sssp(&sw, 0)
	next := argmaxIndex(sw.dist)
	for li := 0; li < k; li++ {
		ls.nodes = append(ls.nodes, next)
		m.sssp(&sw, next)
		for v, d := range sw.dist {
			ls.byNode[v*k+li] = d
			if d < minDist[v] {
				minDist[v] = d
			}
		}
		next = argmaxIndex(minDist)
	}
	return ls
}

// argmaxIndex returns the index of the largest finite value,
// tie-breaking on the lowest index for determinism.
func argmaxIndex(vals []float64) int32 {
	best, bi := math.Inf(-1), int32(0)
	for i, v := range vals {
		if v > best && !math.IsInf(v, 1) {
			best, bi = v, int32(i)
		}
	}
	return bi
}

// lbSlack is subtracted from the composed landmark bound before it is
// returned. The ALT bound is admissible in real arithmetic, but float
// rounding can push it a few ulps *above* the true Dist; a consumer
// ordering candidates by lower bound (rtree.RefinedNN) would then see
// two near-tied candidates in an order that depends on which backend
// produced the bound, breaking the byte-identity conformance suite.
// Shaving a margin far above any rounding error and far below the
// workloads' distance scale restores a strict underestimate at no
// measurable pruning cost.
const lbSlack = 1e-6

// LowerBound implements geo.LowerBounder: a cheap admissible lower
// bound on Dist(p, q). With landmarks enabled it composes the snap
// offsets with the ALT node bound over the same four endpoint
// combinations Dist minimizes over (each true path term only shrinks
// when its node distance is replaced by lbNodes, so the minimum is a
// valid bound); the result is then floored at the Euclidean distance,
// which the network metric always dominates. With landmarks disabled
// it is exactly the Euclidean distance. rtree.RefinedNN keys its
// refinement heap with this, so exact NN refinement under the network
// metric prunes with the tight ALT bound instead of Euclidean.
func (m *NetworkMetric) LowerBound(p, q geo.Point) float64 {
	euclid := p.Dist(q)
	lm := m.landmarks()
	if lm == nil {
		return euclid
	}
	sp := m.snap(p)
	sq := m.snap(q)
	ep, eq := m.edges[sp.edge], m.edges[sq.edge]
	lp, lq := m.lengths[sp.edge], m.lengths[sq.edge]
	best := math.Inf(1)
	if sp.edge == sq.edge {
		best = math.Abs(sp.t-sq.t) * lp
	}
	pw := [2]float64{sp.t * lp, (1 - sp.t) * lp}
	qw := [2]float64{sq.t * lq, (1 - sq.t) * lq}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if d := pw[i] + lm.lbNodes(ep[i], eq[j]) + qw[j]; d < best {
				best = d
			}
		}
	}
	if lb := sp.offset + best + sq.offset - lbSlack; lb > euclid {
		return lb
	}
	return euclid
}
