// WiFi: the paper's motivating scenario (§1).
//
// A campus operator deploys wireless access points, each able to serve a
// bounded number of receivers. Receivers cluster in buildings; the naive
// "connect to the nearest AP" policy (the Voronoi assignment of Figure 1)
// overloads the APs near dense buildings. This example:
//
//  1. generates a clustered workload of receivers on a synthetic road
//     network (the paper's §5.1 recipe),
//  2. compares the nearest-AP greedy matching with the optimal CCA
//     matching, and
//  3. reports the total and worst-case receiver-to-AP distances.
//
// Run with: go run ./examples/wifi
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
	net := datagen.NewNetwork(24, space, 42)

	// 2000 receivers, 80% clustered in 10 buildings.
	receiverPts := net.Points(datagen.Config{N: 2000, Dist: datagen.Clustered, Seed: 1})
	customers, err := cca.IndexCustomers(receiverPts)
	if err != nil {
		log.Fatal(err)
	}
	defer customers.Close()

	// 25 access points spread uniformly over the campus, 80 clients each
	// (2000 slots for 2000 receivers: everything must connect somewhere).
	apPts := net.Points(datagen.Config{N: 25, Dist: datagen.Uniform, Seed: 2})
	aps := make([]cca.Provider, len(apPts))
	for i, pt := range apPts {
		aps[i] = cca.Provider{Pt: pt, Cap: 80}
	}

	greedyStart := time.Now()
	greedy, err := cca.Solve("greedy", aps, customers, nil)
	if err != nil {
		log.Fatal(err)
	}
	greedyTime := time.Since(greedyStart)

	optStart := time.Now()
	optimal, err := cca.Solve("ida", aps, customers, nil)
	if err != nil {
		log.Fatal(err)
	}
	optTime := time.Since(optStart)

	fmt.Println("wifi capacity-constrained association, 2000 receivers, 25 APs × 80 slots")
	fmt.Printf("%-22s %12s %12s %10s\n", "", "total dist", "worst dist", "cpu")
	fmt.Printf("%-22s %12.1f %12.1f %10v\n", "greedy (SM join)",
		greedy.Cost, worst(greedy), greedyTime.Round(time.Millisecond))
	fmt.Printf("%-22s %12.1f %12.1f %10v\n", "optimal CCA (IDA)",
		optimal.Cost, worst(optimal), optTime.Round(time.Millisecond))
	fmt.Printf("\noptimal matching saves %.1f%% total distance over greedy\n",
		100*(greedy.Cost-optimal.Cost)/greedy.Cost)

	// Per-AP load (both matchings respect the 80-client capacity).
	over := 0
	load := make([]int, len(aps))
	for _, p := range optimal.Pairs {
		load[p.Provider]++
	}
	for _, l := range load {
		if l > 80 {
			over++
		}
	}
	fmt.Printf("APs over capacity under CCA: %d (guaranteed 0)\n", over)
}

func worst(r *cca.SolverResult) float64 {
	w := 0.0
	for _, p := range r.Pairs {
		if p.Dist > w {
			w = p.Dist
		}
	}
	return w
}
