package netmetric

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/geo"
)

// PointIndex groups a point set by the network edge each point snaps
// to, with each point's snap position: the data side of the network
// nearest-neighbour stream (nn.go), which discovers points edge by edge
// as a sweep settles the edge's endpoints. Build one per point set and
// network with IndexPoints; it is read-only afterwards and safe to
// share across goroutines.
type PointIndex struct {
	m   *NetworkMetric
	pts []indexedPoint // grouped by edge (ascending edge id), by id within an edge
	// edges lists the network edges holding points, ascending; dense
	// edge k holds pts[first[k]:first[k+1]].
	edges []int32
	first []int32
	// The dense edges incident to node v are
	// nodeEdges[nodeFirst[v]:nodeFirst[v+1]].
	nodeFirst []int32
	nodeEdges []int32
}

// indexedPoint is one indexed point with its snap position.
type indexedPoint struct {
	id   int64
	pt   geo.Point
	snap snapPos
}

// IndexPoints snaps every point to the network and groups the points
// by snap edge; ids[i] identifies pts[i]. The snaps bypass the snap
// cache, so indexing a large point set neither evicts nor counts there,
// and each position is the same one the cache would hold.
func (m *NetworkMetric) IndexPoints(ids []int64, pts []geo.Point) *PointIndex {
	if len(ids) != len(pts) {
		panic(fmt.Sprintf("netmetric: IndexPoints: %d ids for %d points", len(ids), len(pts)))
	}
	x := &PointIndex{m: m, pts: make([]indexedPoint, len(pts))}
	for i, p := range pts {
		x.pts[i] = indexedPoint{id: ids[i], pt: p, snap: m.locate(p)}
	}
	slices.SortFunc(x.pts, func(a, b indexedPoint) int {
		if a.snap.edge != b.snap.edge {
			return cmp.Compare(a.snap.edge, b.snap.edge)
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, p := range x.pts {
		if i == 0 || p.snap.edge != x.pts[i-1].snap.edge {
			x.edges = append(x.edges, p.snap.edge)
			x.first = append(x.first, int32(i))
		}
	}
	x.first = append(x.first, int32(len(x.pts)))

	x.nodeFirst = make([]int32, len(m.nodes)+1)
	for _, e := range x.edges {
		for _, v := range m.edges[e] {
			x.nodeFirst[v+1]++
		}
	}
	for v := range m.nodes {
		x.nodeFirst[v+1] += x.nodeFirst[v]
	}
	x.nodeEdges = make([]int32, x.nodeFirst[len(m.nodes)])
	fill := slices.Clone(x.nodeFirst[:len(m.nodes)])
	for k, e := range x.edges {
		for _, v := range m.edges[e] {
			x.nodeEdges[fill[v]] = int32(k)
			fill[v]++
		}
	}
	return x
}

// Network returns the network the index was built over. The index
// serves every metric over the same road network (SameNetwork), since
// snapping reads only the nodes and edges.
func (x *PointIndex) Network() *NetworkMetric { return x.m }

// Point returns the id and location of the indexed point at position
// i, the handle NN.Next reports.
func (x *PointIndex) Point(i int) (int64, geo.Point) { return x.pts[i].id, x.pts[i].pt }

// denseEdge returns the dense id of network edge e, or -1 when no
// indexed point snaps to it.
func (x *PointIndex) denseEdge(e int32) int {
	k := sort.Search(len(x.edges), func(k int) bool { return x.edges[k] >= e })
	if k < len(x.edges) && x.edges[k] == e {
		return k
	}
	return -1
}
