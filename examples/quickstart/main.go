// Quickstart: the smallest end-to-end CCA run.
//
// Three coffee kiosks with limited staff must serve twelve office
// workers; each worker goes to exactly one kiosk, each kiosk serves at
// most its capacity, and we want to minimize the total walking distance.
// This is the capacity constrained assignment problem on a napkin.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	cca "repro"
)

func main() {
	// The customer set P: twelve office workers.
	workers := []cca.Point{
		{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}, {X: 2.5, Y: 2.5},
		{X: 8, Y: 1}, {X: 9, Y: 2}, {X: 8.5, Y: 3}, {X: 9.5, Y: 1.5},
		{X: 4, Y: 8}, {X: 5, Y: 9}, {X: 6, Y: 8.5}, {X: 5.5, Y: 7.5},
	}
	customers, err := cca.IndexCustomers(workers)
	if err != nil {
		log.Fatal(err)
	}
	defer customers.Close()

	// The provider set Q: three kiosks with capacities 3, 5, 4.
	kiosks := []cca.Provider{
		{Pt: cca.Point{X: 2, Y: 2}, Cap: 3},
		{Pt: cca.Point{X: 8, Y: 2}, Cap: 5},
		{Pt: cca.Point{X: 5, Y: 8}, Cap: 4},
	}

	// Exact optimal assignment (IDA under the hood).
	result, err := cca.Solve("ida", kiosks, customers, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("assigned %d workers, total walking distance %.2f\n\n",
		result.Size, result.Cost)
	perKiosk := map[int][]int64{}
	for _, pair := range result.Pairs {
		perKiosk[pair.Provider] = append(perKiosk[pair.Provider], pair.CustomerID)
	}
	for qi, kiosk := range kiosks {
		fmt.Printf("kiosk %d at (%.0f,%.0f), capacity %d, serves workers %v\n",
			qi, kiosk.Pt.X, kiosk.Pt.Y, kiosk.Cap, perKiosk[qi])
	}

	// Sanity: the library can check the matching for you.
	if err := cca.Validate(kiosks, customers, &result.Result); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmatching validated: capacities respected, size = min(|P|, Σk)")
}
