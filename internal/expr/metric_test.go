package expr

import (
	"math"
	"testing"
)

// TestConfigMetric: metric-name parsing and validation, and the
// workload actually carrying the configured backend.
func TestConfigMetric(t *testing.T) {
	t.Parallel()
	if _, err := ParseMetric("no-such-metric"); err == nil {
		t.Fatal("bogus metric accepted")
	}
	for in, want := range map[string]string{"": "euclidean", "Euclidean": "euclidean", " Network ": "network"} {
		got, err := ParseMetric(in) // case-insensitive
		if err != nil || got != want {
			t.Fatalf("ParseMetric(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	c := NewConfig()
	if c.Metric != "euclidean" {
		t.Fatalf("default metric %q, want euclidean", c.Metric)
	}
	c.Metric = "no-such-metric"
	if _, err := c.Build(Default(testScale)); err == nil {
		t.Fatal("Build accepted a bogus metric")
	}
	c.Metric = "Network"
	w, err := c.Build(Default(testScale))
	if err != nil {
		t.Fatal(err)
	}
	if w.Metric == nil || w.Metric.Name() != "network" {
		t.Fatalf("network workload carries metric %v", w.Metric)
	}
}

// TestNetworkMetricFigurePoint runs one exact figure point under the
// network backend: all exact algorithms must agree on cost, and that
// cost must dominate the Euclidean one (network distance lower-bounds).
func TestNetworkMetricFigurePoint(t *testing.T) {
	t.Parallel()
	p := Default(testScale)
	c := NewConfig()
	euclid, err := c.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	baseRow, err := runExact("ida", euclid, c.coreOptions(p))
	if err != nil {
		t.Fatal(err)
	}

	c.Metric = "network"
	w, err := c.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	var costs []float64
	for _, algo := range []string{"ida", "nia", "ria"} {
		row, err := runExact(algo, w, c.coreOptions(p))
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, row.Cost)
	}
	for _, cost := range costs[1:] {
		if math.Abs(cost-costs[0]) > 1e-6*(1+costs[0]) {
			t.Fatalf("exact algorithms disagree under network metric: %v", costs)
		}
	}
	if costs[0] < baseRow.Cost-1e-6 {
		t.Fatalf("network-metric cost %.3f below Euclidean optimum %.3f (violates the lower bound)",
			costs[0], baseRow.Cost)
	}
}
