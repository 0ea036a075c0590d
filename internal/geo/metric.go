package geo

// Metric is a distance function over the plane. Edge costs throughout
// the assignment stack (flowgraph edge insertion, matching extraction,
// Ψ(M) accounting) are computed through a Metric, so alternative
// distance backends — e.g. shortest-path distance on the synthetic road
// network of internal/datagen — can be plugged in without touching the
// solvers.
//
// The spatial pruning bounds (R-tree mindist, Theorems 1–2) are stated
// for the Euclidean metric; a non-Euclidean Metric must lower-bound
// those estimates (i.e. Dist(p,q) >= Euclidean dist) for the exact
// algorithms to remain exact. EuclideanMetric is always safe.
type Metric interface {
	// Name identifies the metric (e.g. "euclidean").
	Name() string
	// Dist returns the distance between p and q. It must be
	// non-negative and symmetric.
	Dist(p, q Point) float64
}

// EuclideanMetric is the straight-line L2 metric — the paper's setting
// and the default everywhere.
type EuclideanMetric struct{}

// Name implements Metric.
func (EuclideanMetric) Name() string { return "euclidean" }

// Dist implements Metric.
func (EuclideanMetric) Dist(p, q Point) float64 { return p.Dist(q) }

// Euclidean is the shared default Metric instance.
var Euclidean Metric = EuclideanMetric{}

// IsEuclidean reports whether m is the straight-line metric (or nil,
// which every consumer defaults to Euclidean). Callers use it to skip
// the metric-refinement machinery when the R-tree's native Euclidean
// ordering is already exact.
func IsEuclidean(m Metric) bool {
	if m == nil {
		return true
	}
	_, ok := m.(EuclideanMetric)
	return ok
}
