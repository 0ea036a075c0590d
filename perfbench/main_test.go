package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
)

// counterUnits are the units of metrics that count work rather than
// time it; on identical inputs they must repeat exactly.
var counterUnits = map[string]bool{"count": true, "B": true, "ratio": true, "MB": true}

// traced runs one workload's traced mode on a small input and returns
// its deterministic counters.
func traced(t *testing.T, workload string, seed int64) map[string]float64 {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 1, trace: true, dir: t.TempDir()}
	rep := newReport()
	var err error
	switch workload {
	case "solve-euclid":
		err = runSolve(cfg, solveSpec{warm: 2, rate: 5, reps: 1}, rep)
	case "solve-network":
		// Two warm-up requests instead of the memo-filling 32 keep the
		// test short; both runs warm up identically.
		err = runSolve(cfg, solveSpec{metric: "network", warm: 2, rate: 4, reps: 1}, rep)
	case "session-churn":
		err = runChurn(cfg, rep)
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if rep.failed > 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, rep.failed, rep.attempted, rep.failures)
	}
	out := make(map[string]float64)
	for _, d := range perLayer {
		if counterUnits[d.unit] {
			if m, ok := rep.metrics[d.name]; ok {
				out[d.name] = m.value
			}
		}
	}
	return out
}

// TestCountersRepeat is the determinism self-test: two runs with the
// same seed report identical counters (|Esub|, key updates, NN
// retrievals, augment iterations, page faults, cache and memo hits,
// WAL bytes, churn statistics).
func TestCountersRepeat(t *testing.T) {
	workloads := []string{"solve-euclid", "session-churn", "solve-network"}
	if testing.Short() {
		workloads = workloads[:2]
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, b := traced(t, w, 7), traced(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				for k := range a {
					if a[k] != b[k] {
						t.Errorf("%s: %v then %v", k, a[k], b[k])
					}
				}
			}
		})
	}
}

// TestSeedChangesInputs: the seed draws the operations, so a different
// seed must change them, and the same seed must not.
func TestSeedChangesInputs(t *testing.T) {
	digest := func(seed int64) string {
		cfg := config{seed: seed, seconds: 1}
		s, c := genSolveInputs(cfg, euclidSpec), genChurn(cfg)
		return fmt.Sprint(s.warm, s.timed, c.streams)
	}
	if digest(1) != digest(1) {
		t.Fatal("same seed produced different inputs")
	}
	if digest(1) == digest(2) {
		t.Fatal("seeds 1 and 2 produced the same inputs")
	}
}

// TestBenchmarkJSON: BENCHMARK.json at the repository root declares
// exactly the metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads declared %v, implemented %v", names, workloadNames())
	}
}
