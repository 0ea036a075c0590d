package cca_test

import (
	"fmt"
	"log"

	cca "repro"
)

// Example reproduces the spirit of the paper's Figure 1: a cluster of
// customers overloads the provider whose Voronoi cell they fall into, so
// the capacity-respecting optimum must send some of them elsewhere —
// and it does so with the minimum possible total distance.
func Example() {
	customers, err := cca.IndexCustomers([]cca.Point{
		// Four customers huddled around the small provider...
		{X: 0, Y: 1}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 2},
		// ...and one customer near the big provider.
		{X: 10, Y: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer customers.Close()

	providers := []cca.Provider{
		{Pt: cca.Point{X: 0, Y: 0}, Cap: 2},  // overloaded by the cluster
		{Pt: cca.Point{X: 10, Y: 0}, Cap: 3}, // has room to help
	}

	result, err := cca.Solve("ida", providers, customers, nil)
	if err != nil {
		log.Fatal(err)
	}
	load := make([]int, len(providers))
	for _, pair := range result.Pairs {
		load[pair.Provider]++
	}
	fmt.Printf("matched %d customers, load %v, total distance %.2f\n",
		result.Size, load, result.Cost)
	// Output:
	// matched 5 customers, load [2 3], total distance 22.06
}

// ExampleSolve_approximate shows the accuracy/time trade-off of the CA
// approximation: the error is bounded by γ·δ (Theorem 4).
func ExampleSolve_approximate() {
	pts := make([]cca.Point, 0, 100)
	for i := 0; i < 100; i++ {
		pts = append(pts, cca.Point{X: float64(i % 10), Y: float64(i / 10)})
	}
	customers, err := cca.IndexCustomers(pts)
	if err != nil {
		log.Fatal(err)
	}
	defer customers.Close()
	providers := []cca.Provider{
		{Pt: cca.Point{X: 0, Y: 0}, Cap: 50},
		{Pt: cca.Point{X: 9, Y: 9}, Cap: 50},
	}
	res, err := cca.Solve("ca", providers, customers, &cca.SolverOptions{Delta: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matched %d, error bound ≤ %.0f\n", res.Size, res.ErrorBound)
	// Output:
	// matched 100, error bound ≤ 200
}
