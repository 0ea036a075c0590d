// Clinics: disk-resident data and I/O accounting (§1, §5).
//
// A health authority assigns residents to public clinics with fixed
// intake capacities. The resident registry is large and lives on disk:
// this example persists the R-tree to a page file, reopens it with the
// paper's buffer configuration (1 KB pages, LRU buffer = 1% of the
// tree), and reports the page faults and simulated I/O time (10 ms per
// fault) alongside the assignment — the full disk-based setting the
// paper evaluates.
//
// Run with: go run ./examples/clinics
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	cca "repro"
	"repro/internal/datagen"
)

func main() {
	space := cca.Rect{Min: cca.Point{X: 0, Y: 0}, Max: cca.Point{X: 1000, Y: 1000}}
	net := datagen.NewNetwork(32, space, 11)

	dir, err := os.MkdirTemp("", "cca-clinics")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "residents.db")

	// Build the registry once and persist it.
	residents := net.Points(datagen.Config{N: 20000, Dist: datagen.Clustered, Seed: 12})
	built, err := cca.IndexCustomersConfig(residents, cca.IndexConfig{Path: dbPath})
	if err != nil {
		log.Fatal(err)
	}
	pages := built.Tree().PageCount()
	if err := built.Close(); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(dbPath)
	fmt.Printf("resident registry: 20000 points, %d pages (%d KB on disk at %s)\n",
		pages, fi.Size()/1024, dbPath)

	// Reopen cold, with the paper's 1% LRU buffer.
	registry, err := cca.OpenCustomers(dbPath)
	if err != nil {
		log.Fatal(err)
	}
	defer registry.Close()

	// 40 clinics, mixed intake capacities 300–650.
	clinicPts := net.Points(datagen.Config{N: 40, Dist: datagen.Uniform, Seed: 13})
	intakes := datagen.Capacities(40, 300, 650, 14)
	clinics := make([]cca.Provider, 40)
	for i := range clinics {
		clinics[i] = cca.Provider{Pt: clinicPts[i], Cap: intakes[i]}
	}

	registry.ResetIOStats()
	start := time.Now()
	res, err := cca.Solve("ida", clinics, registry, nil)
	if err != nil {
		log.Fatal(err)
	}
	cpu := time.Since(start)

	io := registry.IOStats()
	fmt.Printf("\nassigned %d residents, total distance %.0f\n", res.Size, res.Cost)
	fmt.Printf("subgraph explored: %d of %d possible edges (%.2f%%)\n",
		res.Metrics.SubgraphEdges, res.Metrics.FullGraphEdges,
		100*float64(res.Metrics.SubgraphEdges)/float64(res.Metrics.FullGraphEdges))
	fmt.Printf("CPU time: %v\n", cpu.Round(time.Millisecond))
	fmt.Printf("I/O: %d logical reads, %d faults, %d hits (%.1f%% hit rate)\n",
		io.LogicalReads(), io.Faults, io.Hits,
		100*float64(io.Hits)/float64(io.LogicalReads()))
	fmt.Printf("simulated I/O time at 10ms/fault: %v\n", io.IOTime())

	// Unserved residents (capacity shortfall) are simply unassigned —
	// CCA maximizes the matching size first.
	total := 0
	for _, c := range clinics {
		total += c.Cap
	}
	if res.Size < registry.Len() {
		fmt.Printf("\n%d residents unassigned (capacity %d < %d residents)\n",
			registry.Len()-res.Size, total, registry.Len())
	}
}
