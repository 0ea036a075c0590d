package cca

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// backendFingerprint renders everything result-bearing about a solve at
// full float precision (Go's %v prints the shortest round-tripping
// form, so equal strings mean equal bits). Timings are excluded;
// they're the only thing allowed to differ between backends.
func backendFingerprint(res *SolverResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "size=%d cost=%x bound=%x esub=%d pairs=", res.Size,
		math.Float64bits(res.Cost), math.Float64bits(res.ErrorBound), res.Metrics.SubgraphEdges)
	for _, p := range res.Pairs {
		fmt.Fprintf(&sb, "(%d,%d,%x)", p.Provider, p.CustomerID, math.Float64bits(p.Dist))
	}
	return sb.String()
}

// TestNetworkBackendConformance pins the contract of the network
// distance backends: switching the network metric's point-query search
// (plain Dijkstra vs contraction hierarchy) or pre-resolving the
// provider distance table must
// change *nothing* about any solver's output — not a pair, not an ulp
// of cost. Every path computes the same canonical forward relaxation,
// so their floats are identical, not merely close; the solvers are
// deterministic given identical distances, so the whole matching is.
func TestNetworkBackendConformance(t *testing.T) {
	space := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}
	net := datagen.NewNetwork(16, space, 2008)

	// 8 providers × 600 customers = 4800 pairs, above the solver layer's
	// distance-table gate (1<<12), so the "table" backend really builds.
	cpts := net.Points(datagen.Config{N: 600, Dist: datagen.Clustered, Seed: 5})
	customers, err := IndexCustomers(cpts)
	if err != nil {
		t.Fatal(err)
	}
	defer customers.Close()
	qpts := net.Points(datagen.Config{N: 8, Dist: datagen.Uniform, Seed: 9})
	caps := datagen.Capacities(len(qpts), 20, 60, 3)
	providers := make([]Provider, len(qpts))
	for i := range providers {
		providers[i] = Provider{Pt: qpts[i], Cap: caps[i]}
	}

	backends := []struct {
		name      string
		distTable int // core.Options.DistTable
		ch        int // SetCH argument (0 = off; the 256-node grid is below auto)
	}{
		{"dijkstra", -1, 0}, // plain forward Dijkstra
		{"table", 0, 0},     // bulk many-to-many table, auto budget
		{"ch", -1, 1},       // contraction-hierarchy point queries
		{"ch+table", 0, 1},  // table with the hierarchy on for point queries
	}

	for _, algo := range []string{"ida", "sspa", "greedy", "sharded:ida"} {
		var ref, refBackend string
		for _, b := range backends {
			metric := netmetric.FromNetwork(net)
			metric.SetCH(b.ch)
			opts := &SolverOptions{}
			opts.Core.Metric = metric
			opts.Core.DistTable = b.distTable
			if strings.HasPrefix(algo, "sharded") {
				opts.Core.Shards = 4
			}
			res, err := Solve(algo, providers, customers, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, b.name, err)
			}
			if res.Size == 0 {
				t.Fatalf("%s/%s: empty matching", algo, b.name)
			}
			// The table backend must actually have engaged: with every
			// provider's endpoint vectors materialized, no solver Dist
			// call reaches the point-query path, so the node-pair cache
			// records no misses (point backends record thousands).
			if misses := metric.Stats().NodeMisses; b.distTable == 0 && misses != 0 {
				t.Errorf("%s/%s: %d node-cache misses; distance table never engaged", algo, b.name, misses)
			}
			// Likewise the hierarchy rows must actually route their point
			// queries through chDist, not silently fall through to Dijkstra.
			if q, _ := metric.CHStats(); b.ch == 1 && b.distTable != 0 && q == 0 {
				t.Errorf("%s/%s: hierarchy enabled but no chDist queries recorded", algo, b.name)
			}
			fp := backendFingerprint(res)
			if ref == "" {
				ref, refBackend = fp, b.name
			} else if fp != ref {
				t.Errorf("%s: backend %q diverged from %q:\n%s\nvs\n%s", algo, b.name, refBackend, fp, ref)
			}
		}
	}
}
