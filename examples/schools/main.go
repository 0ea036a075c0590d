// Schools: district assignment with an approximation trade-off (§1, §4).
//
// A municipality assigns 20 000 children to 30 schools with individual
// seat counts, minimizing summed travel distance. At this size the exact
// solver still runs, but the CA approximation answers much faster with a
// provable error bound (Theorem 4: Ψ(M) ≤ Ψ(optimal) + γ·δ) — the
// trade-off a planning department would actually use.
//
// Run with: go run ./examples/schools
package main

import (
	"fmt"
	"log"
	"time"

	cca "repro"
	"repro/internal/datagen"
)

func main() {
	space := cca.Rect{Min: cca.Point{X: 0, Y: 0}, Max: cca.Point{X: 1000, Y: 1000}}
	net := datagen.NewNetwork(32, space, 7)

	children := net.Points(datagen.Config{N: 20000, Dist: datagen.Clustered, Seed: 8})
	customers, err := cca.IndexCustomers(children)
	if err != nil {
		log.Fatal(err)
	}
	defer customers.Close()

	// 30 schools with mixed seat counts (400–900 seats).
	schoolPts := net.Points(datagen.Config{N: 30, Dist: datagen.Clustered, Seed: 9})
	seatCounts := datagen.Capacities(30, 400, 900, 10)
	schools := make([]cca.Provider, 30)
	totalSeats := 0
	for i := range schools {
		schools[i] = cca.Provider{Pt: schoolPts[i], Cap: seatCounts[i]}
		totalSeats += seatCounts[i]
	}
	fmt.Printf("20000 children, 30 schools, %d seats total\n\n", totalSeats)

	// Approximate assignment first: CA with the paper's tuned δ=10.
	caStart := time.Now()
	approxRes, err := cca.Solve("ca", schools, customers, &cca.SolverOptions{Delta: 10})
	if err != nil {
		log.Fatal(err)
	}
	caTime := time.Since(caStart)
	fmt.Printf("CA (δ=10):  cost %.0f in %v (%d groups, bound: ≤ optimal + %.0f)\n",
		approxRes.Cost, caTime.Round(time.Millisecond), approxRes.Groups, approxRes.ErrorBound)

	// Exact assignment for comparison.
	exactStart := time.Now()
	exact, err := cca.Solve("ida", schools, customers, nil)
	if err != nil {
		log.Fatal(err)
	}
	exactTime := time.Since(exactStart)
	fmt.Printf("IDA exact:  cost %.0f in %v\n", exact.Cost, exactTime.Round(time.Millisecond))

	fmt.Printf("\nmeasured quality Ψ(CA)/Ψ(opt) = %.4f (Theorem 4 guarantees ≤ %.4f)\n",
		approxRes.Cost/exact.Cost, (exact.Cost+approxRes.ErrorBound)/exact.Cost)
	fmt.Printf("speedup: %.1fx\n", float64(exactTime)/float64(caTime))

	// Average walk per child under the exact assignment.
	fmt.Printf("average distance per assigned child: %.1f units (exact), %.1f (CA)\n",
		exact.Cost/float64(exact.Size), approxRes.Cost/float64(approxRes.Size))
}
