package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/flowgraph"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// netSpace is the conformance suite's data space.
var netSpace = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

// networkInstance draws one CCA instance with both sides placed on a
// road network (the paper's §5.1 setting), plus — on every third seed —
// one off-network provider, so snapping with a non-zero offset is
// exercised too. Odd seeds are γ-limited.
func networkInstance(net *datagen.Network, seed int64) ([]core.Provider, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	nq := 2 + rng.Intn(4)
	np := 8 + rng.Intn(40)
	qpts := net.Points(datagen.Config{N: nq, Dist: datagen.Uniform, Seed: seed * 11})
	providers := make([]core.Provider, nq)
	for i := range providers {
		cap := 1 + rng.Intn(5)
		if seed%2 == 1 {
			cap += np/nq + 1 // γ-limited: the customer side binds
		}
		providers[i] = core.Provider{Pt: qpts[i], Cap: cap}
	}
	if seed%3 == 0 {
		providers[0].Pt = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	pts := net.Points(datagen.Config{N: np, Dist: datagen.Clustered, Seed: seed * 13})
	return providers, pts
}

// refCost computes the optimal cost under an arbitrary metric with the
// independent Bellman–Ford oracle (no R-tree, no potentials, full cost
// matrix) — the ground truth the registry solvers must reproduce.
func refCost(providers []core.Provider, pts []geo.Point, m geo.Metric) float64 {
	fp := make([]flowgraph.Provider, len(providers))
	for i, p := range providers {
		fp[i] = flowgraph.Provider{Pt: p.Pt, Cap: p.Cap}
	}
	fc := make([]flowgraph.Customer, len(pts))
	for i, p := range pts {
		fc[i] = flowgraph.Customer{Pt: p, Cap: 1, ExtID: int64(i)}
	}
	_, cost := flowgraph.RefSolveMetric(fp, fc, 1, m)
	return cost
}

// TestCrossMetricExactConformance runs every registered exact solver
// under both distance backends and asserts the cost matches the
// brute-force oracle under the same metric. This is the PR 1 SSPA-oracle
// suite parameterized over metrics: under NetworkMetric it proves the
// refinement-heap NN mode keeps NIA/IDA (and the annulus logic keeps
// RIA) exact when R-tree mindist is only a lower bound.
func TestCrossMetricExactConformance(t *testing.T) {
	net := datagen.NewNetwork(10, netSpace, 2008)
	metrics := map[string]geo.Metric{
		"euclidean": geo.Euclidean,
		"network":   netmetric.FromNetwork(net),
	}
	names := ByKind(Exact)
	if len(names) < 5 {
		t.Fatalf("expected at least 5 exact solvers registered, got %v", names)
	}
	for mName, metric := range metrics {
		t.Run(mName, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				providers, pts := networkInstance(net, seed)
				data := buildDataset(t, pts)
				want := refCost(providers, pts, metric)
				opts := Options{}
				opts.Core.Metric = metric
				for _, name := range names {
					res, err := MustGet(name).Solve(context.Background(), providers, data, opts)
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, name, err)
					}
					validate(t, name+"/"+mName, providers, len(pts), res)
					if d := math.Abs(res.Cost - want); d > 1e-6 {
						t.Errorf("seed %d: %s under %s: cost %.9f != oracle %.9f (Δ %.3g)",
							seed, name, mName, res.Cost, want, d)
					}
					// Per-pair distances must be measured in the metric.
					for _, pr := range res.Pairs {
						md := metric.Dist(providers[pr.Provider].Pt, pr.CustomerPt)
						if math.Abs(md-pr.Dist) > 1e-6 {
							t.Fatalf("seed %d: %s under %s: pair dist %.9f != metric %.9f",
								seed, name, mName, pr.Dist, md)
						}
					}
				}
			}
		})
	}
}

// TestCrossMetricHeuristicValidity: the greedy join must stay feasible
// and never beat the optimum under the network metric either.
func TestCrossMetricHeuristicValidity(t *testing.T) {
	net := datagen.NewNetwork(8, netSpace, 77)
	metric := netmetric.FromNetwork(net)
	opts := Options{}
	opts.Core.Metric = metric
	for seed := int64(1); seed <= 6; seed++ {
		providers, pts := networkInstance(net, seed)
		data := buildDataset(t, pts)
		want := refCost(providers, pts, metric)
		for _, name := range ByKind(Heuristic) {
			res, err := MustGet(name).Solve(context.Background(), providers, data, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			validate(t, name+"/network", providers, len(pts), res)
			if res.Cost < want-1e-6 {
				t.Errorf("%s cost %.3f beats the network-metric optimum %.3f", name, res.Cost, want)
			}
		}
	}
}

// TestCrossMetricApproxConsistency: under the network metric the
// approximate solvers must measure every pair — and hence Result.Cost —
// in the network metric too (the refinement phase used to fall back to
// Euclidean, letting SA/CA "beat" the true optimum), and so can never
// come out cheaper than the metric's optimal cost.
func TestCrossMetricApproxConsistency(t *testing.T) {
	net := datagen.NewNetwork(8, netSpace, 41)
	metric := netmetric.FromNetwork(net)
	for seed := int64(1); seed <= 6; seed++ {
		providers, pts := networkInstance(net, seed)
		data := buildDataset(t, pts)
		want := refCost(providers, pts, metric)
		for _, name := range ByKind(Approximate) {
			for _, refn := range []Refinement{RefineNN, RefineExclusive, RefineExact} {
				opts := Options{Delta: 100, Refinement: refn}
				opts.Core.Metric = metric
				res, err := MustGet(name).Solve(context.Background(), providers, data, opts)
				if err != nil {
					t.Fatalf("seed %d: %s/%v: %v", seed, name, refn, err)
				}
				validate(t, name+"/network", providers, len(pts), res)
				for _, pr := range res.Pairs {
					md := metric.Dist(providers[pr.Provider].Pt, pr.CustomerPt)
					if math.Abs(md-pr.Dist) > 1e-6 {
						t.Fatalf("seed %d: %s/%v: pair dist %.9f is not the metric distance %.9f",
							seed, name, refn, pr.Dist, md)
					}
				}
				if res.Cost < want-1e-6 {
					t.Errorf("seed %d: %s/%v: cost %.3f beats the network-metric optimum %.3f (metric mixing)",
						seed, name, refn, res.Cost, want)
				}
			}
		}
	}
}

// TestCrossMetricAblations re-runs the NIA/IDA option matrix under the
// network metric: the refinement layer must stay exact with ANN off,
// PUA off, and the Theorem 2 fast path off.
func TestCrossMetricAblations(t *testing.T) {
	net := datagen.NewNetwork(8, netSpace, 99)
	metric := netmetric.FromNetwork(net)
	variants := map[string]func(*core.Options){
		"ann-off":  func(o *core.Options) { o.DisableANN = true },
		"pua-off":  func(o *core.Options) { o.DisablePUA = true },
		"thm2-off": func(o *core.Options) { o.DisableTheorem2 = true },
		"all-off":  func(o *core.Options) { o.DisableANN = true; o.DisablePUA = true; o.DisableTheorem2 = true },
		"default":  func(o *core.Options) {},
	}
	for seed := int64(2); seed <= 5; seed++ {
		providers, pts := networkInstance(net, seed)
		data := buildDataset(t, pts)
		want := refCost(providers, pts, metric)
		for vn, tweak := range variants {
			for _, name := range []string{"nia", "ida"} {
				opts := Options{}
				opts.Core.Metric = metric
				tweak(&opts.Core)
				res, err := MustGet(name).Solve(context.Background(), providers, data, opts)
				if err != nil {
					t.Fatalf("seed %d: %s/%s: %v", seed, name, vn, err)
				}
				if d := math.Abs(res.Cost - want); d > 1e-6 {
					t.Errorf("seed %d: %s/%s: cost %.9f != oracle %.9f", seed, name, vn, res.Cost, want)
				}
			}
		}
	}
}

// pointQueries hides a road-network metric from withDistTable, which
// puts a distance table in front of a *netmetric.NetworkMetric only:
// solves over it keep the point-query path at any instance size.
type pointQueries struct{ geo.Metric }

// TestNetworkExpansionConformance pins the table path's candidate
// stream against the R-tree one above DistTableMinPairs: on a clustered
// 16-grid instance, solves that stream network nearest neighbours from
// the distance table's rows (the registry's choice) and solves over
// pointQueries (the refinement stream over the R-tree) must agree on
// the cost bits, the size and |Esub|, traced and untraced.
// The traced table-path solves must also show the stream at work and
// no R-tree page read.
func TestNetworkExpansionConformance(t *testing.T) {
	net := datagen.NewNetwork(16, netSpace, 2008)
	metric := netmetric.FromNetwork(net)
	qpts := net.Points(datagen.Config{N: 12, Dist: datagen.Uniform, Seed: 31})
	providers := make([]core.Provider, len(qpts))
	for i, q := range qpts {
		providers[i] = core.Provider{Pt: q, Cap: 20}
	}
	pts := net.Points(datagen.Config{N: 700, Dist: datagen.Clustered, Seed: 32})
	if len(providers)*len(pts) < DistTableMinPairs {
		t.Fatalf("instance of %d pairs is below DistTableMinPairs", len(providers)*len(pts))
	}
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{ID: int64(i), Pt: p}
	}
	for _, name := range []string{"ida", "greedy", "sharded:ida"} {
		for _, traced := range []bool{false, true} {
			var got [2]*Result
			for k, table := range []bool{true, false} {
				tree, err := rtree.Bulk(storage.NewBuffer(storage.NewMemStore(storage.DefaultPageSize), 1<<20), items)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{}
				opts.Core.Metric = pointQueries{metric}
				if table {
					opts.Core.Metric = metric
				}
				opts.Core.Shards = 3
				ctx, root := context.Background(), (*obs.Span)(nil)
				if traced {
					root = obs.NewRoot("test")
					ctx = obs.WithSpan(ctx, root)
				}
				res, err := MustGet(name).Solve(ctx, providers, FromTreeItems(tree, items), opts)
				if err != nil {
					t.Fatalf("%s (table %v, traced %v): %v", name, table, traced, err)
				}
				validate(t, name, providers, len(pts), res)
				if name == "sharded:ida" && res.Groups != opts.Core.Shards {
					t.Fatalf("sharded:ida solved %d regions, want %d", res.Groups, opts.Core.Shards)
				}
				got[k] = res
				if !table && name != "sharded:ida" && res.Metrics.IO.Hits+res.Metrics.IO.Faults == 0 {
					t.Errorf("%s: the R-tree path read no R-tree page", name)
				}
				if !traced || !table {
					continue
				}
				root.End()
				attrs := root.Tree().Find("solver").Attrs
				if attrs["nn_emitted"].(int64) == 0 || attrs["nn_pushed"].(int64) < attrs["nn_emitted"].(int64) {
					t.Errorf("%s: solver span nn_pushed=%v nn_emitted=%v; want 0 < emitted <= pushed", name, attrs["nn_pushed"], attrs["nn_emitted"])
				}
				if name != "sharded:ida" && res.Metrics.IO.Hits+res.Metrics.IO.Faults != 0 {
					t.Errorf("%s: the table path read R-tree pages: %+v", name, res.Metrics.IO)
				}
			}
			a, b := got[0], got[1]
			if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || a.Size != b.Size ||
				a.Metrics.SubgraphEdges != b.Metrics.SubgraphEdges {
				t.Errorf("%s (traced %v): table path cost %v size %d |Esub| %d, R-tree path cost %v size %d |Esub| %d",
					name, traced, a.Cost, a.Size, a.Metrics.SubgraphEdges, b.Cost, b.Size, b.Metrics.SubgraphEdges)
			}
		}
	}
}
