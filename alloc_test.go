package cca

import "testing"

// raceEnabled is set by race_test.go under -race, where sync.Pool reuse
// is deliberately defeated and allocation budgets cannot hold.
var raceEnabled bool

// TestAllocsSolveIDA pins the allocation budget of an end-to-end IDA
// solve (BenchmarkAssignIDA's workload). Every Dijkstra, edge-heap and
// ANN push goes into a flat reusable heap, so a solve allocates a few
// hundred times — per-solve structures, not per-push items. With one
// heap-allocated item per push it allocated about 76,700 times; the
// budget sits 10x under that.
func TestAllocsSolveIDA(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector")
	}
	providers, customers := benchWorkload(t, 2000)
	solve := func() {
		if _, err := Solve("ida", providers, customers, nil); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the pools
	if avg := testing.AllocsPerRun(10, solve); avg > 7670 {
		t.Fatalf("IDA solve allocates %.0f times; want <= 7670", avg)
	}
}
