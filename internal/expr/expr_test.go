package expr

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tiny scale keeps the harness tests fast while still exercising every
// figure end to end.
const testScale = 0.01

func TestBuildWorkload(t *testing.T) {
	t.Parallel()
	c := NewConfig()
	p := Default(testScale)
	w, err := c.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Providers) != p.NQ || w.Tree.Size() != p.NP {
		t.Fatalf("workload sizes: %d providers, %d customers; want %d, %d",
			len(w.Providers), w.Tree.Size(), p.NQ, p.NP)
	}
	for _, q := range w.Providers {
		if q.Cap != 80 {
			t.Fatalf("default capacity %d want 80", q.Cap)
		}
		if !Space.Contains(q.Pt) {
			t.Fatalf("provider outside space: %v", q.Pt)
		}
	}
	// Same params → same workload (determinism matters for comparisons).
	w2, err := c.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if w.Providers[0].Pt != w2.Providers[0].Pt {
		t.Fatal("workload generation is not deterministic")
	}
}

func TestBuildMixedCaps(t *testing.T) {
	t.Parallel()
	c := NewConfig()
	p := Default(testScale)
	p.KLo, p.KHi = 10, 30
	w, err := c.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	seenDifferent := false
	for _, q := range w.Providers {
		if q.Cap < 10 || q.Cap > 30 {
			t.Fatalf("capacity %d out of range", q.Cap)
		}
		if q.Cap != w.Providers[0].Cap {
			seenDifferent = true
		}
	}
	if !seenDifferent {
		t.Fatal("mixed capacities all equal")
	}
}

// Every exact algorithm must produce identical cost within a figure
// point — the harness depends on it when reporting.
func TestFig9AgreesOnCost(t *testing.T) {
	t.Parallel()
	rows, err := NewConfig().Fig9(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string][]Row{}
	for _, r := range rows {
		byLabel[r.Label] = append(byLabel[r.Label], r)
	}
	if len(byLabel) != 5 {
		t.Fatalf("expected 5 k-points, got %d", len(byLabel))
	}
	for label, rs := range byLabel {
		if len(rs) != 3 {
			t.Fatalf("%s: %d algorithms", label, len(rs))
		}
		for _, r := range rs[1:] {
			if math.Abs(r.Cost-rs[0].Cost) > 1e-6*(1+rs[0].Cost) {
				t.Fatalf("%s: %s cost %v != %s cost %v",
					label, r.Algo, r.Cost, rs[0].Algo, rs[0].Cost)
			}
		}
		for _, r := range rs {
			if r.Esub > r.Full {
				t.Fatalf("%s/%s: Esub %d exceeds FULL %d", label, r.Algo, r.Esub, r.Full)
			}
		}
	}
}

// Figure 8's headline claim: SSPA is far slower than the incremental
// algorithms on the same instance.
func TestFig8SSPASlower(t *testing.T) {
	t.Parallel()
	rows, err := NewConfig().Fig8(0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sspa, ida float64
	for _, r := range rows {
		if r.Label != "k=80" {
			continue
		}
		switch r.Algo {
		case "SSPA":
			sspa = float64(r.CPU)
		case "IDA":
			ida = float64(r.CPU)
		}
	}
	if sspa == 0 || ida == 0 {
		t.Fatal("missing rows")
	}
	if sspa < ida {
		t.Fatalf("SSPA (%v) should be slower than IDA (%v)", sspa, ida)
	}
}

// Figure 14's quality ratios must be >= 1 and finite, and CA must respect
// Theorem 4 (quality bounded via γ·δ).
func TestFig14Quality(t *testing.T) {
	t.Parallel()
	rows, err := NewConfig().Fig14(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Quality < 1-1e-9 {
			t.Fatalf("%s at %s: quality %v below 1", r.Algo, r.Label, r.Quality)
		}
		if math.IsInf(r.Quality, 0) || math.IsNaN(r.Quality) {
			t.Fatalf("%s: bad quality %v", r.Algo, r.Quality)
		}
		if r.Algo == "IDA" && math.Abs(r.Quality-1) > 1e-9 {
			t.Fatalf("IDA quality must be exactly 1, got %v", r.Quality)
		}
	}
}

// The ablation harness must keep the optimal cost invariant across
// optimization toggles.
func TestAblationCostInvariant(t *testing.T) {
	t.Parallel()
	rows, err := NewConfig().Ablation(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	var optCost float64
	for _, r := range rows {
		if r.Label == "IDA (full)" {
			optCost = r.Cost
		}
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Label, "IDA") || strings.HasPrefix(r.Label, "NIA") {
			if math.Abs(r.Cost-optCost) > 1e-6*(1+optCost) {
				t.Fatalf("%s changed the optimal cost: %v vs %v", r.Label, r.Cost, optCost)
			}
		}
		if r.Label == "SM greedy" && r.Cost < optCost-1e-6 {
			t.Fatalf("greedy cheaper than optimal: %v < %v", r.Cost, optCost)
		}
	}
	// The optimizations must actually matter: disabling ANN costs I/O.
	byLabel := map[string]Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	if byLabel["IDA -ANN"].Faults <= byLabel["IDA (full)"].Faults {
		t.Errorf("disabling ANN should increase faults: %d vs %d",
			byLabel["IDA -ANN"].Faults, byLabel["IDA (full)"].Faults)
	}
	if byLabel["IDA -PUA"].CPU < byLabel["IDA (full)"].CPU {
		t.Logf("note: -PUA CPU %v < full %v (timing noise possible at tiny scale)",
			byLabel["IDA -PUA"].CPU, byLabel["IDA (full)"].CPU)
	}
}

func TestThetaSensitivity(t *testing.T) {
	t.Parallel()
	rows, err := NewConfig().ThetaSensitivity(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Smaller θ must issue at least as many range searches → faults grow.
	if rows[0].Faults < rows[len(rows)-1].Faults {
		t.Logf("θ sensitivity: faults %d (small θ) vs %d (large θ)",
			rows[0].Faults, rows[len(rows)-1].Faults)
	}
	base := rows[0].Cost
	for _, r := range rows {
		if math.Abs(r.Cost-base) > 1e-6*(1+base) {
			t.Fatalf("θ changed the optimal cost: %v vs %v", r.Cost, base)
		}
	}
}

// PrintRows must render both table shapes without panicking.
func TestPrintRows(t *testing.T) {
	t.Parallel()
	rows := []Row{{Label: "k=80", Algo: "IDA", Esub: 10, Full: 100, Quality: 1.02}}
	var buf bytes.Buffer
	PrintRows(&buf, "test", rows, false)
	if !strings.Contains(buf.String(), "IDA") {
		t.Fatal("exact table missing content")
	}
	buf.Reset()
	PrintRows(&buf, "test", rows, true)
	if !strings.Contains(buf.String(), "1.02") {
		t.Fatal("quality table missing content")
	}
}

// The distribution figures run end-to-end at tiny scale.
func TestFig13And18Run(t *testing.T) {
	t.Parallel()
	rows, err := NewConfig().Fig13(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, r := range rows {
		labels[r.Label] = true
	}
	for _, want := range []string{"UvsU", "UvsC", "CvsU", "CvsC"} {
		if !labels[want] {
			t.Fatalf("missing combination %s (have %v)", want, labels)
		}
	}
	if _, err := NewConfig().Fig18(testScale, nil); err != nil {
		t.Fatal(err)
	}
}
