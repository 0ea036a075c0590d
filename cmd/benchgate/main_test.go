package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/expr"
)

// repoFile resolves a committed bench trajectory relative to this
// package (cmd/benchgate → repo root). The tests run against the real
// committed baselines, not fixtures: the gate's whole job is to read
// exactly what CI reads.
func repoFile(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join("..", "..", name)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	return path
}

// TestCommittedBaselinesPass gates the repo's own committed
// trajectories: whatever is checked in must pass its own gate, or CI
// would be red on an untouched tree.
func TestCommittedBaselinesPass(t *testing.T) {
	for _, name := range []string{"BENCH_net.json", "BENCH_shard.json", "BENCH_serve.json", "BENCH_churn.json"} {
		if msgs := gateFile(repoFile(t, name), 0.15); len(msgs) > 0 {
			t.Errorf("%s: committed baseline fails its own gate: %v", name, msgs)
		}
	}
}

// loadNetRuns parses the committed net trajectory.
func loadNetRuns(t *testing.T) []run {
	t.Helper()
	data, err := os.ReadFile(repoFile(t, "BENCH_net.json"))
	if err != nil {
		t.Fatal(err)
	}
	var runs []run
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 || runs[0].Figures["net"] == nil {
		t.Fatal("BENCH_net.json carries no net figure")
	}
	return runs
}

// writeRuns marshals runs into a temp trajectory file.
func writeRuns(t *testing.T, runs []run) string {
	t.Helper()
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mutateLatest deep-copies the committed baseline, appends a candidate
// run derived from it by f, and returns the trajectory path.
func mutateLatest(t *testing.T, f func(rows []expr.Row)) string {
	t.Helper()
	runs := loadNetRuns(t)
	base := runs[len(runs)-1]
	cand := run{Unix: base.Unix + 1, Scale: base.Scale, Metric: base.Metric,
		Shards: base.Shards, Workers: base.Workers, Figures: map[string][]expr.Row{}}
	rows := append([]expr.Row(nil), base.Figures["net"]...)
	f(rows)
	cand.Figures["net"] = rows
	return writeRuns(t, append(runs, cand))
}

// TestIdenticalCandidatePasses appends a byte-identical rerun: the gate
// must accept a candidate whose ratios match the baseline exactly.
func TestIdenticalCandidatePasses(t *testing.T) {
	path := mutateLatest(t, func([]expr.Row) {})
	if msgs := gateFile(path, 0.15); len(msgs) > 0 {
		t.Errorf("identical candidate rejected: %v", msgs)
	}
}

// TestAugmentsColumnCompatibility: the Augments column (added with the
// tracing work) must be invisible to the gate. A candidate run that
// carries it gates cleanly against a committed baseline that predates
// it, and legacy JSON without the field decodes to zero rather than
// erroring.
func TestAugmentsColumnCompatibility(t *testing.T) {
	path := mutateLatest(t, func(rows []expr.Row) {
		for i := range rows {
			rows[i].Augments = 1000 + i
		}
	})
	if msgs := gateFile(path, 0.15); len(msgs) > 0 {
		t.Errorf("candidate with Augments column rejected against pre-column baseline: %v", msgs)
	}

	var legacy expr.Row
	if err := json.Unmarshal([]byte(`{"Label":"ch","Algo":"ida","Size":10,"Cost":1.5}`), &legacy); err != nil {
		t.Fatalf("legacy row without Augments failed to decode: %v", err)
	}
	if legacy.Augments != 0 {
		t.Errorf("missing Augments decoded to %d, want 0", legacy.Augments)
	}

	var modern expr.Row
	if err := json.Unmarshal([]byte(`{"Label":"ch","Algo":"ida","Augments":42}`), &modern); err != nil {
		t.Fatalf("row with Augments failed to decode: %v", err)
	}
	if modern.Augments != 42 {
		t.Errorf("Augments round-trip got %d, want 42", modern.Augments)
	}
}

// TestInflatedCPUFails slows the candidate's dijkstra and table rows 3x
// relative to the run's own reference row — the machine-independent
// shape regression the gate exists to catch.
func TestInflatedCPUFails(t *testing.T) {
	path := mutateLatest(t, func(rows []expr.Row) {
		for i := range rows {
			if rows[i].Label == "dijkstra" || rows[i].Label == "table" {
				rows[i].CPU *= 3
			}
		}
	})
	msgs := gateFile(path, 0.15)
	if len(msgs) == 0 {
		t.Fatal("3x normalized CPU regression passed the gate")
	}
	if !containsAll(msgs, "dijkstra/ida", "table/ida") {
		t.Errorf("findings name neither inflated row: %v", msgs)
	}
}

// TestUniformSlowdownPasses scales *every* CPU (the reference row too)
// by 4x — a slower machine, not a regression. Normalization must
// absorb it.
func TestUniformSlowdownPasses(t *testing.T) {
	path := mutateLatest(t, func(rows []expr.Row) {
		for i := range rows {
			rows[i].CPU *= 4
		}
	})
	if msgs := gateFile(path, 0.15); len(msgs) > 0 {
		t.Errorf("uniform 4x slowdown (machine speed) rejected: %v", msgs)
	}
}

// TestCostDriftFails perturbs a deterministic field: the solve result
// changed, which is never acceptable for a perf-only commit.
func TestCostDriftFails(t *testing.T) {
	path := mutateLatest(t, func(rows []expr.Row) {
		for i := range rows {
			if rows[i].Label == "table" {
				rows[i].Cost *= 1.0001
			}
		}
	})
	msgs := gateFile(path, 0.15)
	if len(msgs) == 0 {
		t.Fatal("cost drift passed the gate")
	}
	if !containsAll(msgs, "cost") {
		t.Errorf("findings do not mention cost: %v", msgs)
	}
}

// latestNet returns a copy of the committed trajectory's latest net
// rows, for single-run floor tests.
func latestNet(t *testing.T) (run, []expr.Row) {
	t.Helper()
	runs := loadNetRuns(t)
	last := runs[len(runs)-1]
	return last, append([]expr.Row(nil), last.Figures["net"]...)
}

// gateSingle gates rows as the only run of a trajectory, so only the
// internal invariants (floors, determinism across rows) apply.
func gateSingle(t *testing.T, last run, rows []expr.Row) []string {
	t.Helper()
	last.Figures = map[string][]expr.Row{"net": rows}
	return gateFile(writeRuns(t, []run{last}), 0.15)
}

// TestSpeedupFloor drops the table row's cold-solve speedup over
// dijkstra under 4x: the gate must enforce the floor even with no
// prior run to diff against.
func TestSpeedupFloor(t *testing.T) {
	last, rows := latestNet(t)
	var ref time.Duration
	for _, r := range rows {
		if r.Label == "dijkstra" {
			ref = r.CPU
		}
	}
	for i := range rows {
		if rows[i].Label == "table" {
			rows[i].CPU = ref / 2 // 2x < 4x floor
		}
	}
	msgs := gateSingle(t, last, rows)
	if len(msgs) == 0 {
		t.Fatal("sub-floor table speedup passed the gate")
	}
	if !containsAll(msgs, "floor") {
		t.Errorf("findings do not mention the floor: %v", msgs)
	}
}

// TestCHQueryFloor drops the ch row's cold point-query speedup over
// dijkstra under 26x: the per-query floor must fire even when every row
// CPU is healthy, and must stay silent for runs predating the QueryNS
// column.
func TestCHQueryFloor(t *testing.T) {
	last, rows := latestNet(t)
	for i := range rows {
		switch rows[i].Label {
		case "dijkstra":
			rows[i].QueryNS = 3000 * time.Microsecond
		case "ch":
			rows[i].QueryNS = 200 * time.Microsecond // 15x < 26x floor
		}
	}
	msgs := gateSingle(t, last, rows)
	if len(msgs) == 0 {
		t.Fatal("sub-floor ch point-query speedup passed the gate")
	}
	if !containsAll(msgs, "ch", "floor") {
		t.Errorf("findings do not name the ch floor: %v", msgs)
	}

	for i := range rows {
		rows[i].QueryNS = 0 // legacy run: column absent
	}
	if msgs := gateSingle(t, last, rows); len(msgs) > 0 {
		t.Errorf("legacy run without QueryNS rejected: %v", msgs)
	}
}

// TestNetFloorsNameRow puts each net floor just under and just over
// its threshold, one at a time against the dijkstra reference row:
// under must produce exactly one finding naming the row and the
// reference, over must pass.
func TestNetFloorsNameRow(t *testing.T) {
	const ref = 100 * time.Millisecond
	cases := []struct {
		row   string
		floor float64
		set   func(r *expr.Row, d time.Duration)
	}{
		{"table", netFloorSpeedup, func(r *expr.Row, d time.Duration) { r.CPU = d }},
		{"ch", chQueryFloorSpeedup, func(r *expr.Row, d time.Duration) { r.QueryNS = d }},
	}
	for _, c := range cases {
		for _, speedup := range []float64{c.floor * 0.99, c.floor * 1.01} {
			last, rows := latestNet(t)
			for i := range rows {
				switch rows[i].Label {
				case "dijkstra":
					rows[i].CPU, rows[i].QueryNS = ref, ref
				case "table", "ch":
					// Both rows comfortably clear their floors
					// unless the case below lowers one of them.
					rows[i].CPU, rows[i].QueryNS = ref/100, ref/100
				}
			}
			for i := range rows {
				if rows[i].Label == c.row {
					c.set(&rows[i], time.Duration(float64(ref)/speedup))
				}
			}
			msgs := gateSingle(t, last, rows)
			if speedup > c.floor {
				if len(msgs) > 0 {
					t.Errorf("%s at %.2fx (floor %.0fx) rejected: %v", c.row, speedup, c.floor, msgs)
				}
				continue
			}
			if len(msgs) != 1 || !containsAll(msgs, "net: "+c.row+" ", "over dijkstra", "floor") {
				t.Errorf("%s at %.2fx (floor %.0fx): want one finding naming the row, got %v", c.row, speedup, c.floor, msgs)
			}
		}
	}
}

// churnRows is a healthy churn figure: exact row driftless, budget
// rows under the ceiling, all sizes equal.
func churnRows() []expr.Row {
	return []expr.Row{
		{Label: "exact", Algo: "dynamic", CPU: 80 * time.Millisecond, Cost: 5010.7, Size: 21, Quality: 3e-16, Esub: 120, KeyUpd: 300},
		{Label: "budget=1", Algo: "dynamic", CPU: 60 * time.Millisecond, Cost: 5010.7, Size: 21, Quality: 0.004, Esub: 100, KeyUpd: 300, Faults: 90},
		{Label: "budget=8", Algo: "dynamic", CPU: 70 * time.Millisecond, Cost: 5010.7, Size: 21, Quality: 0.001, Esub: 118, KeyUpd: 300, Faults: 2},
	}
}

// TestChurnGatePasses: a healthy churn run has no findings.
func TestChurnGatePasses(t *testing.T) {
	if msgs := gateChurn(churnRows()); len(msgs) > 0 {
		t.Errorf("healthy churn rows rejected: %v", msgs)
	}
}

// TestChurnDriftCeilingFails: a budgeted row drifting past the
// documented 10% bound is a correctness regression, not noise.
func TestChurnDriftCeilingFails(t *testing.T) {
	rows := churnRows()
	rows[1].Quality = 0.12
	msgs := gateChurn(rows)
	if len(msgs) == 0 {
		t.Fatal("drift above the ceiling passed the gate")
	}
	if !containsAll(msgs, "budget=1", "ceiling") {
		t.Errorf("findings do not name the drifted row: %v", msgs)
	}
}

// TestChurnExactDriftFails: the unlimited-budget row must track the
// oracle exactly — any drift there means the repair loop is broken.
func TestChurnExactDriftFails(t *testing.T) {
	rows := churnRows()
	rows[0].Quality = 1e-4
	msgs := gateChurn(rows)
	if len(msgs) == 0 {
		t.Fatal("exact-row drift passed the gate")
	}
	if !containsAll(msgs, "exact") {
		t.Errorf("findings do not mention the exact row: %v", msgs)
	}
}

// TestChurnSizeDivergenceFails: budgets bound only cost repair;
// augmentation never defers, so sizes must agree across rows.
func TestChurnSizeDivergenceFails(t *testing.T) {
	rows := churnRows()
	rows[2].Size = 20
	msgs := gateChurn(rows)
	if len(msgs) == 0 {
		t.Fatal("size divergence passed the gate")
	}
	if !containsAll(msgs, "budget=8", "size") {
		t.Errorf("findings do not name the diverged row: %v", msgs)
	}
}

// TestChurnMissingExactRowFails: without the budget-0 reference the
// figure cannot be gated at all.
func TestChurnMissingExactRowFails(t *testing.T) {
	rows := churnRows()[1:]
	if msgs := gateChurn(rows); len(msgs) == 0 {
		t.Fatal("churn figure without an exact row passed the gate")
	}
}

func containsAll(msgs []string, subs ...string) bool {
	joined := strings.Join(msgs, "\n")
	for _, s := range subs {
		if !strings.Contains(joined, s) {
			return false
		}
	}
	return true
}
