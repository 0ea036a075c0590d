package cca

// Benchmarks regenerating every figure of the paper's evaluation (§5).
// Each BenchmarkFigNN executes the corresponding figure's full parameter
// sweep through the experiment harness at a reduced scale (the harness
// preserves the k·|Q|/|P| ratios that drive the paper's trends, so the
// shapes survive scaling). For larger runs use:
//
//	go run ./cmd/ccabench -fig <n> -scale 0.1
//
// Additional micro-benchmarks cover the hot substrate paths: flow-graph
// iterations, R-tree search, and the solvers through the public API.

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/expr"
)

// benchScale keeps the full sweeps fast enough for `go test -bench=.` on
// one core while still exercising every code path of every figure.
const benchScale = 0.01

// BenchmarkFig08 — CPU vs k on the small instance, SSPA baseline
// included (Figure 8: SSPA is orders of magnitude slower).
func BenchmarkFig08(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig8(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09 — |Esub| and time vs capacity k (Figure 9).
func BenchmarkFig09(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig9(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 — performance vs |Q| (Figure 10).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig10(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11 — performance vs |P| (Figure 11).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig11(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12 — mixed capacities (Figure 12).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig12(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13 — distribution combinations (Figure 13).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig13(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14 — approximation quality/time vs δ (Figure 14).
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig14(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15 — approximation vs k (Figure 15).
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig15(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16 — approximation vs |Q| (Figure 16).
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig16(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17 — approximation vs |P| (Figure 17).
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig17(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig18 — approximation across distributions (Figure 18).
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Fig18(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation — the §3.3–§3.4 optimization ablations.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().Ablation(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineScaling — §2.1's Hungarian/SSPA/IDA scaling claim.
func BenchmarkBaselineScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().BaselineScaling(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThetaSensitivity — RIA's θ trade-off (§3.2 motivation).
func BenchmarkThetaSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.NewConfig().ThetaSensitivity(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- solver micro-benchmarks through the public API ---

func benchWorkload(tb testing.TB, nc int) ([]Provider, *Customers) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, nc)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	customers, err := IndexCustomers(pts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { customers.Close() })
	providers := make([]Provider, 10)
	for i := range providers {
		providers[i] = Provider{
			Pt:  Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Cap: nc / 20,
		}
	}
	return providers, customers
}

// BenchmarkAssignIDA measures the paper's best exact algorithm end to
// end (10 providers, 2000 customers, half the customers assignable).
func BenchmarkAssignIDA(b *testing.B) {
	providers, customers := benchWorkload(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve("ida", providers, customers, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignIDAClustered mirrors the benchmark's solve-euclid
// workload: ida over 20k clustered customers on a 128-grid road network
// (1 KB pages, the paper's 1% buffer), each op a fresh set of 16
// providers with capacity 50 solved on a cold Customers clone. Unlike
// BenchmarkAssignIDA, its grouped nearest-neighbour search reads
// hundreds of leaf pages per solve.
func BenchmarkAssignIDAClustered(b *testing.B) {
	space := Rect{Min: Point{X: 0, Y: 0}, Max: Point{X: 1000, Y: 1000}}
	net := datagen.NewNetwork(128, space, 2008)
	pts := net.Points(datagen.Config{N: 20000, Dist: datagen.Clustered, Seed: 2008})
	customers, err := IndexItems(datagen.Items(pts), IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { customers.Close() })
	requests := make([][]Provider, 16)
	for i := range requests {
		for _, q := range net.Points(datagen.Config{N: 16, Dist: datagen.Uniform, Seed: int64(i + 1)}) {
			requests[i] = append(requests[i], Provider{Pt: q, Cap: 50})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := customers.Clone()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Solve("ida", requests[i%len(requests)], c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignNIA measures NIA on the same workload.
func BenchmarkAssignNIA(b *testing.B) {
	providers, customers := benchWorkload(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve("nia", providers, customers, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignApproxCA measures the paper's recommended approximate
// method on the same workload.
func BenchmarkAssignApproxCA(b *testing.B) {
	providers, customers := benchWorkload(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve("ca", providers, customers, &SolverOptions{Delta: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyAssign measures the SM-join baseline.
func BenchmarkGreedyAssign(b *testing.B) {
	providers, customers := benchWorkload(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve("greedy", providers, customers, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexCustomers measures STR bulk loading of the R-tree.
func BenchmarkIndexCustomers(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]Point, 10000)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		customers, err := IndexCustomers(pts)
		if err != nil {
			b.Fatal(err)
		}
		customers.Close()
	}
}
