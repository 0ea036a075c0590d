package expr

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sched"
)

// stripTiming zeroes the wall-clock field so rows can be compared across
// scheduler widths; everything else (labels, algorithms, subgraph sizes,
// fault counts, costs) is deterministic per point.
func stripTiming(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		r.CPU = 0
		out[i] = fmt.Sprintf("%+v", r)
	}
	return out
}

func sameRows(t *testing.T, what string, want, got []Row) {
	t.Helper()
	a, b := stripTiming(want), stripTiming(got)
	if len(a) != len(b) {
		t.Fatalf("%s: row counts diverged: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: row %d diverged:\nwant: %s\ngot:  %s", what, i, a[i], b[i])
		}
	}
}

// TestStreamWorkersEquivalence: running a figure sweep on a wide
// scheduler returns the same rows in the same order as the sequential
// default — points are independent workloads and runPoints re-assembles
// them in point order.
func TestStreamWorkersEquivalence(t *testing.T) {
	t.Parallel()
	seq, err := NewConfig().Fig9(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(sched.Config{Workers: 4})
	defer pool.Close()
	c := NewConfig()
	c.Pool = pool
	par, err := c.Fig9(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "4 workers vs sequential", seq, par)
	m := pool.Metrics()
	if m.Workers != 4 || m.Completed == 0 {
		t.Errorf("stream metrics %+v, want 4 workers with completed points", m)
	}
}

// TestConcurrentConfigs: a Euclidean and a network configuration sweep
// the same figure at the same time in one process, and each returns
// exactly the rows it returns alone — configurations share no state.
func TestConcurrentConfigs(t *testing.T) {
	t.Parallel()
	euclid := NewConfig()
	network := NewConfig()
	network.Metric = "network"
	configs := []Config{euclid, network}

	solo := make([][]Row, len(configs))
	for i, c := range configs {
		rows, err := c.Fig9(testScale, nil)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = rows
	}

	together := make([][]Row, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	for i, c := range configs {
		wg.Add(1)
		go func(i int, c Config) {
			defer wg.Done()
			together[i], errs[i] = c.Fig9(testScale, nil)
		}(i, c)
	}
	wg.Wait()

	for i, c := range configs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.Metric, errs[i])
		}
		if len(together[i]) != len(solo[i]) {
			t.Fatalf("%s: %d rows concurrently, %d alone", c.Metric, len(together[i]), len(solo[i]))
		}
		for j, r := range together[i] {
			s := solo[i][j]
			if r.Cost != s.Cost || r.Size != s.Size || r.Esub != s.Esub {
				t.Errorf("%s row %d (%s %s): concurrent cost %v size %d |Esub| %d, alone %v %d %d",
					c.Metric, j, r.Label, r.Algo, r.Cost, r.Size, r.Esub, s.Cost, s.Size, s.Esub)
			}
		}
	}
	if solo[0][0].Cost == solo[1][0].Cost {
		t.Error("the network sweep matched the Euclidean one: the metric did not reach the workload")
	}
}
