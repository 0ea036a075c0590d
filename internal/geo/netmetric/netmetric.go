// Package netmetric implements geo.Metric over a road network: the
// distance between two points is the length of the shortest path along
// the network's edges, plus the straight-line offsets from each point to
// its snap position on the nearest edge.
//
// The paper's evaluation places every point *on* a network edge (§5.1),
// so for generated workloads the snap offsets are zero and Dist is the
// pure travel distance. Arbitrary points (e.g. CLI CSV input) snap to
// the nearest edge first.
//
// Contract. Every edge is weighted by the Euclidean length of its
// segment, and Dist(p,q) is the length of an actual polyline from p to
// q in the plane (p → snap(p) → network path → snap(q) → q), so
//
//	Dist(p,q) >= EuclideanDist(p,q)
//
// always holds — the lower-bound property geo.Metric requires for the
// exact algorithms' R-tree pruning (Theorems 1–2) to remain exact.
// Dist is symmetric and non-negative; note Dist(p,p) = 2·offset(p),
// which is 0 exactly when p lies on the network (the generated
// workloads' case). Shortest-path distances between snapped nodes
// satisfy the triangle inequality (see NodeDist).
//
// Concurrency. A NetworkMetric is safe for concurrent use: the snap and
// node-pair distance caches are bounded, concurrency-safe LRUs
// (internal/lru), so cca.Engine workers can share one metric instance
// (and its warm caches) across a whole batch — and a long-lived server
// process holds a fixed-size working set instead of growing the caches
// without bound. Both caches are sharded by key hash (lru.Sharded), so
// warm hits from many workers take independent shard mutexes instead of
// convoying behind one cache-wide lock (BenchmarkNetworkMetricParallel
// here and BenchmarkWarmHitParallel* in internal/lru measure the win).
// Cache capacities are fixed at DefaultSnapCacheSize,
// DefaultNodeCacheSize and DefaultPairCacheSize; read eviction pressure
// from Stats.
package netmetric

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/lru"
)

// Name is the registry/CLI name of this distance backend.
const Name = "network"

// arc is one directed half of an undirected edge in the routing graph.
type arc struct {
	to     int32
	length float64
}

// snapPos is a point's position on the network: the nearest (real) edge,
// the projection parameter t along it, the projected point, and the
// straight-line offset from the original point to the projection.
type snapPos struct {
	edge   int32
	t      float64
	pos    geo.Point
	offset float64
}

// Default cache capacities: generous working sets for the paper-scale
// workloads (every snap entry is one customer/provider point; every
// node entry one shortest-path distance), yet bounded so a server
// process serving an endless stream of scenarios cannot grow them
// without limit.
const (
	DefaultSnapCacheSize = 1 << 17 // ≈131K snapped points
	DefaultNodeCacheSize = 1 << 19 // ≈524K node-pair distances
	DefaultPairCacheSize = 1 << 20 // ≈1M finished point-pair distances
)

// cacheShards is the lock-shard count of the snap and node-pair caches.
// 32 keeps shard-mutex collisions rare for the worker counts an engine
// realistically runs (GOMAXPROCS on big servers) while leaving thousands
// of entries per shard.
const cacheShards = 32

// CacheStats reports the metric's cache activity. The node-pair numbers
// are the interesting ones: a hit avoids a cold point search (a
// hierarchy query or a plain Dijkstra), and sustained evictions mean
// the working set outgrew the cache.
type CacheStats struct {
	NodeHits      uint64 // node-pair distances served from the cache
	NodeMisses    uint64 // node-pair distances computed by a point search
	NodeEvictions uint64 // node-pair entries displaced by the LRU bound
	SnapHits      uint64 // snap positions served from the cache
	SnapMisses    uint64 // snap positions computed against the edge grid
	SnapEvictions uint64 // snap entries displaced by the LRU bound
	PairHits      uint64 // whole Dist calls served from the point-pair cache
	PairMisses    uint64 // Dist calls that ran the snap + node-pair path
	PairEvictions uint64 // point-pair entries displaced by the LRU bound
}

// NodeHitRate returns the fraction of node-pair lookups served from the
// cache (0 when no lookups happened).
func (s CacheStats) NodeHitRate() float64 {
	total := s.NodeHits + s.NodeMisses
	if total == 0 {
		return 0
	}
	return float64(s.NodeHits) / float64(total)
}

// NetworkMetric is a shortest-path distance backend over a road network.
// Build one with New or FromNetwork.
type NetworkMetric struct {
	nodes []geo.Point
	// edges holds the real (snappable) edges first, then any virtual
	// bridge edges appended by connectComponents; realEdges counts the
	// former.
	edges     [][2]int32
	lengths   []float64
	realEdges int
	adj       [][]arc

	grid snapGrid

	// Contraction-hierarchy state, built lazily on first use (see
	// ch.go). chMode: −1 auto by network size, 0 off, 1 on.
	chMode                 int
	chOnce                 *sync.Once
	ch                     *chState
	chQueries, chFallbacks atomic.Uint64

	// Cone (hub-label) cache of the hierarchy backend: node → its
	// upward search space, built lazily per queried node (see ch.go).
	chLabelMu sync.RWMutex
	chLabels  map[int32]*chCone
	chLabelN  int

	nodeCache *lru.Sharded[[2]int32, float64]
	snapCache *lru.Sharded[geo.Point, snapPos]
	pairCache *lru.Sharded[pointPair, float64]
}

// pointPair keys the finished-distance cache by the ordered query
// points themselves. Solvers re-evaluate the same provider–customer
// edge many times across augmenting iterations, and each repeat through
// the layered path costs two snap lookups plus four node-pair lookups;
// one hit here replaces all six. Ordered (not normalized) because Dist
// is canonical per ordered pair, like the node-pair cache.
type pointPair struct {
	p, q geo.Point
}

// New builds a NetworkMetric from nodes and undirected edges. Edge
// weights are the Euclidean lengths of the segments. Disconnected
// components are bridged with virtual edges (straight segments between
// the closest node pairs), so every distance is finite; bridges are
// routable but never snap targets. It returns an error on an empty
// network or an out-of-range edge endpoint.
func New(nodes []geo.Point, edges [][2]int32) (*NetworkMetric, error) {
	if len(nodes) == 0 || len(edges) == 0 {
		return nil, fmt.Errorf("netmetric: need at least one node and one edge (got %d, %d)", len(nodes), len(edges))
	}
	m := &NetworkMetric{
		nodes:     append([]geo.Point(nil), nodes...),
		realEdges: len(edges),
		chMode:    -1, // automatic: on at DefaultCHMinNodes nodes
		chOnce:    new(sync.Once),
		nodeCache: lru.NewSharded[[2]int32, float64](DefaultNodeCacheSize, cacheShards),
		snapCache: lru.NewSharded[geo.Point, snapPos](DefaultSnapCacheSize, cacheShards),
		pairCache: lru.NewSharded[pointPair, float64](DefaultPairCacheSize, cacheShards),
	}
	m.edges = make([][2]int32, len(edges), len(edges)+8)
	copy(m.edges, edges)
	for i, e := range m.edges {
		if e[0] < 0 || int(e[0]) >= len(nodes) || e[1] < 0 || int(e[1]) >= len(nodes) {
			return nil, fmt.Errorf("netmetric: edge %d endpoints %v out of range [0,%d)", i, e, len(nodes))
		}
	}
	m.connectComponents()
	m.lengths = make([]float64, len(m.edges))
	m.adj = make([][]arc, len(m.nodes))
	for i, e := range m.edges {
		l := m.nodes[e[0]].Dist(m.nodes[e[1]])
		m.lengths[i] = l
		m.adj[e[0]] = append(m.adj[e[0]], arc{to: e[1], length: l})
		m.adj[e[1]] = append(m.adj[e[1]], arc{to: e[0], length: l})
	}
	m.grid = buildSnapGrid(m.nodes, m.edges[:m.realEdges])
	return m, nil
}

// Name implements geo.Metric.
func (m *NetworkMetric) Name() string { return Name }

// NumNodes returns the number of network nodes.
func (m *NetworkMetric) NumNodes() int { return len(m.nodes) }

// NumEdges returns the number of real (snappable) edges.
func (m *NetworkMetric) NumEdges() int { return m.realEdges }

// Bridges returns the number of virtual edges added to connect the
// network's components (0 for a connected network).
func (m *NetworkMetric) Bridges() int { return len(m.edges) - m.realEdges }

// SameNetwork reports whether m and o are built over the same road
// network: equal nodes and edges, bridges included. Metrics that differ
// only in the hierarchy snap every point identically, so they can share
// a PointIndex.
func (m *NetworkMetric) SameNetwork(o *NetworkMetric) bool {
	return m == o || m.realEdges == o.realEdges &&
		slices.Equal(m.nodes, o.nodes) && slices.Equal(m.edges, o.edges)
}

// DefaultLandmarks selects nothing: NN refinement keys on the Euclidean
// distance alone. It exists only so perfbench/, which passes it to
// SetLandmarks, still builds.
//
// Deprecated: selects nothing; do not use.
const DefaultLandmarks = 8

// SetLandmarks does nothing. It exists only so perfbench/, which calls
// it, still builds.
//
// Deprecated: no landmark lower bound exists; do not use.
func (m *NetworkMetric) SetLandmarks(int) {}

// Stats returns a snapshot of the cache counters.
func (m *NetworkMetric) Stats() CacheStats {
	node := m.nodeCache.Stats()
	snap := m.snapCache.Stats()
	pair := m.pairCache.Stats()
	return CacheStats{
		NodeHits:      node.Hits,
		NodeMisses:    node.Misses,
		NodeEvictions: node.Evictions,
		SnapHits:      snap.Hits,
		SnapMisses:    snap.Misses,
		SnapEvictions: snap.Evictions,
		PairHits:      pair.Hits,
		PairMisses:    pair.Misses,
		PairEvictions: pair.Evictions,
	}
}

// Dist implements geo.Metric: offset(p) + travel(snap(p), snap(q)) +
// offset(q). The finished value is memoized per ordered point pair:
// solvers re-evaluate edges across augmenting iterations, and serving
// the repeat from one lookup instead of re-walking the snap and
// node-pair layers is the difference between the metric and the solver
// dominating a large solve. Racing misses compute identical values, so
// the duplicate Put is harmless.
func (m *NetworkMetric) Dist(p, q geo.Point) float64 {
	k := pointPair{p: p, q: q}
	if d, ok := m.pairCache.Get(k); ok {
		return d
	}
	sp := m.snap(p)
	sq := m.snap(q)
	d := sp.offset + m.pathDist(sp, sq) + sq.offset
	m.pairCache.Put(k, d)
	return d
}

// Snap returns p's position on the network (the nearest point of the
// nearest real edge) and the straight-line offset to it.
func (m *NetworkMetric) Snap(p geo.Point) (geo.Point, float64) {
	s := m.snap(p)
	return s.pos, s.offset
}

// SnapNode returns the network node nearest to p's snap position — the
// endpoint of the snap edge closest along the edge. Property tests use
// it to exercise the node-level triangle inequality.
func (m *NetworkMetric) SnapNode(p geo.Point) int32 {
	s := m.snap(p)
	e := m.edges[s.edge]
	if s.t <= 0.5 {
		return e[0]
	}
	return e[1]
}

// NodeDist returns the shortest-path distance between two network nodes.
// It panics on out-of-range indexes. Node distances are a metric on the
// node set: non-negative, zero on the diagonal, symmetric and
// triangle-inequality consistent up to float rounding. The returned
// float is canonical per *ordered* pair — the fixed point of forward
// relaxation from a (see search.go) — so NodeDist(a,b) and NodeDist(b,a)
// may differ in the last ulps; every backend (plain, hierarchy, bulk
// table) agrees byte-for-byte on the oriented value, which is what the
// conformance suite pins.
func (m *NetworkMetric) NodeDist(a, b int32) float64 {
	if a < 0 || int(a) >= len(m.nodes) || b < 0 || int(b) >= len(m.nodes) {
		panic(fmt.Sprintf("netmetric: NodeDist(%d, %d) out of range [0,%d)", a, b, len(m.nodes)))
	}
	return m.nodeDist(a, b)
}

// pathDist returns the travel distance between two snap positions.
func (m *NetworkMetric) pathDist(sp, sq snapPos) float64 {
	ep, eq := m.edges[sp.edge], m.edges[sq.edge]
	lp, lq := m.lengths[sp.edge], m.lengths[sq.edge]
	best := math.Inf(1)
	if sp.edge == sq.edge {
		best = math.Abs(sp.t-sq.t) * lp
	}
	// Walking distances from each snap position to its edge endpoints.
	pw := [2]float64{sp.t * lp, (1 - sp.t) * lp}
	qw := [2]float64{sq.t * lq, (1 - sq.t) * lq}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			// A path through the endpoints can beat the direct walk
			// along a shared edge only via a shortcut elsewhere in the
			// network, but it is always a valid path — take the min.
			if d := pw[i] + m.nodeDist(ep[i], eq[j]) + qw[j]; d < best {
				best = d
			}
		}
	}
	return best
}

// snap resolves p's snap position through the cache. Two goroutines
// missing on the same point both compute it — identical results, so
// the duplicate Put is harmless.
func (m *NetworkMetric) snap(p geo.Point) snapPos {
	if s, ok := m.snapCache.Get(p); ok {
		return s
	}
	s := m.locate(p)
	m.snapCache.Put(p, s)
	return s
}

// locate computes p's snap position against the edge grid, bypassing
// the cache.
func (m *NetworkMetric) locate(p geo.Point) snapPos {
	ei := m.grid.nearestEdge(p, m.nodes, m.edges)
	e := m.edges[ei]
	t, pos := projectOntoSegment(p, m.nodes[e[0]], m.nodes[e[1]])
	return snapPos{edge: ei, t: t, pos: pos, offset: p.Dist(pos)}
}

// nodeDist resolves an oriented node-pair distance through the cache,
// running a point search on a miss. The cache key is the ordered pair:
// the canonical a→b value differs from b→a in the last ulps, and every
// caller orients consistently (provider side first), so the directed
// key costs little extra cache pressure.
func (m *NetworkMetric) nodeDist(a, b int32) float64 {
	if a == b {
		return 0
	}
	key := [2]int32{a, b}
	if d, ok := m.nodeCache.Get(key); ok {
		return d
	}
	d := m.searchDist(a, b)
	m.nodeCache.Put(key, d)
	return d
}

// searchDist runs one cold point query a→b: through the contraction
// hierarchy when it is enabled (large networks by default), else plain
// forward Dijkstra. Both return the identical canonical float.
func (m *NetworkMetric) searchDist(a, b int32) float64 {
	if ch := m.hierarchy(); ch != nil {
		return m.chDist(ch, a, b)
	}
	return m.forwardDijkstra(a, b)
}

// projectOntoSegment returns the parameter t ∈ [0,1] and position of the
// point of segment ab closest to p.
func projectOntoSegment(p, a, b geo.Point) (float64, geo.Point) {
	abx, aby := b.X-a.X, b.Y-a.Y
	len2 := abx*abx + aby*aby
	t := 0.0
	if len2 > 0 {
		t = ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / len2
		t = math.Max(0, math.Min(1, t))
	}
	return t, geo.Point{X: a.X + t*abx, Y: a.Y + t*aby}
}

// connectComponents appends virtual bridge edges until the node set is
// one component: union-find over the real edges, then each remaining
// component is linked to the growing main component through its closest
// node pair. Deterministic (no randomness, stable iteration orders).
func (m *NetworkMetric) connectComponents() {
	parent := make([]int32, len(m.nodes))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) { parent[find(a)] = find(b) }
	for _, e := range m.edges {
		union(e[0], e[1])
	}
	// Group nodes by root; the component containing node 0 seeds "main".
	comps := make(map[int32][]int32)
	for i := range m.nodes {
		r := find(int32(i))
		comps[r] = append(comps[r], int32(i))
	}
	if len(comps) == 1 {
		return
	}
	main := comps[find(0)]
	delete(comps, find(0))
	// Deterministic order: repeatedly bridge the component whose closest
	// approach to the main component is smallest.
	for len(comps) > 0 {
		bestD := math.Inf(1)
		var bestRoot int32
		var bestA, bestB int32 // bestA in main, bestB in the component
		for root, nodes := range comps {
			for _, u := range nodes {
				for _, v := range main {
					d := m.nodes[u].Dist(m.nodes[v])
					// Strict tie-break on indexes keeps map iteration
					// order from leaking into the result.
					if d < bestD || (d == bestD && (v < bestA || (v == bestA && u < bestB))) {
						bestD, bestRoot, bestA, bestB = d, root, v, u
					}
				}
			}
		}
		m.edges = append(m.edges, [2]int32{bestA, bestB})
		main = append(main, comps[bestRoot]...)
		delete(comps, bestRoot)
	}
}
