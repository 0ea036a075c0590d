// Package geo provides the planar geometry primitives shared by every
// module of the CCA reproduction: points, axis-aligned rectangles (MBRs),
// Euclidean distances and the standard spatial-index lower bounds
// (mindist, minmaxdist).
//
// All coordinates are float64 in an arbitrary, normalized space; the
// experiments in the paper use [0,1000]².
package geo

import "math"

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It is
// cheaper than Dist and order-equivalent, which suffices for nearest
// neighbor pruning.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Rect is a closed axis-aligned rectangle (minimum bounding rectangle).
// A Rect is valid when Min.X <= Max.X and Min.Y <= Max.Y. The zero Rect
// is the degenerate rectangle at the origin; use EmptyRect for an
// identity element under Union.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and leaves any rectangle unchanged when united.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect { return Rect{p, p} }

// IsEmpty reports whether r contains no points (as produced by EmptyRect).
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// ExtendPoint returns the MBR of r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// Union returns the MBR of r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s is fully inside r (boundary inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	if r.IsEmpty() {
		return false
	}
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Diagonal returns the length of r's diagonal. The approximation methods
// of the paper (SA and CA, §4) bound group MBR diagonals by δ.
func (r Rect) Diagonal() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Min.Dist(r.Max)
}

// Center returns the geometric center of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// MinDist returns the minimum Euclidean distance between p and any point
// of r; 0 when p is inside r. This is the classical admissible lower
// bound used by best-first nearest neighbor search on R-trees.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// MinDist2 returns the squared MinDist.
func (r Rect) MinDist2(p Point) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return dx*dx + dy*dy
}

// MinDistRect returns the minimum Euclidean distance between any point of
// r and any point of s; 0 when they intersect. Used by the grouped
// incremental ANN search (§3.4.2), where the heap key is
// mindist(MBR(Gm), MBR(e)).
func (r Rect) MinDistRect(s Rect) float64 {
	dx := gapDist(r.Min.X, r.Max.X, s.Min.X, s.Max.X)
	dy := gapDist(r.Min.Y, r.Max.Y, s.Min.Y, s.Max.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// MaxDist returns the maximum Euclidean distance between p and any point
// of r — an upper bound used when reasoning about group representatives.
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return math.Sqrt(dx*dx + dy*dy)
}

// SplitLongest cuts r into two equal halves across its longest dimension.
// CA partitioning (§4.2) applies this repeatedly to oversized R-tree leaf
// MBRs until every part's diagonal is at most δ.
func (r Rect) SplitLongest() (Rect, Rect) {
	if r.Max.X-r.Min.X >= r.Max.Y-r.Min.Y {
		mid := (r.Min.X + r.Max.X) / 2
		return Rect{r.Min, Point{mid, r.Max.Y}},
			Rect{Point{mid, r.Min.Y}, r.Max}
	}
	mid := (r.Min.Y + r.Max.Y) / 2
	return Rect{r.Min, Point{r.Max.X, mid}},
		Rect{Point{r.Min.X, mid}, r.Max}
}

// axisDist is the 1-D distance from v to the interval [lo,hi].
func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// gapDist is the 1-D distance between intervals [alo,ahi] and [blo,bhi].
func gapDist(alo, ahi, blo, bhi float64) float64 {
	switch {
	case ahi < blo:
		return blo - ahi
	case bhi < alo:
		return alo - bhi
	default:
		return 0
	}
}

// Centroid returns the weighted centroid of points pts with weights w
// (len(w) == len(pts), all weights >= 0, at least one positive). SA (§4.1)
// places a group representative at the capacity-weighted centroid; CA
// (§4.2) uses unit weights.
func Centroid(pts []Point, w []float64) Point {
	var sx, sy, sw float64
	for i, p := range pts {
		sx += p.X * w[i]
		sy += p.Y * w[i]
		sw += w[i]
	}
	if sw == 0 {
		// Fall back to the unweighted mean to stay total.
		for _, p := range pts {
			sx += p.X
			sy += p.Y
		}
		n := float64(len(pts))
		return Point{sx / n, sy / n}
	}
	return Point{sx / sw, sy / sw}
}
