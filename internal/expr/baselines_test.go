package expr

import (
	"math"
	"testing"
)

// All three baselines must agree on the optimal cost at every size, and
// Hungarian's CPU must grow faster than IDA's.
func TestBaselineScalingAgreement(t *testing.T) {
	t.Parallel()
	rows, err := NewConfig().BaselineScaling(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]map[string]Row{}
	for _, r := range rows {
		if byLabel[r.Label] == nil {
			byLabel[r.Label] = map[string]Row{}
		}
		byLabel[r.Label][r.Algo] = r
	}
	for label, m := range byLabel {
		hung, ok := m["Hungarian"]
		if !ok {
			continue // refused at this size; acceptable at large scale
		}
		for _, algo := range []string{"SSPA", "IDA"} {
			if math.Abs(m[algo].Cost-hung.Cost) > 1e-6*(1+hung.Cost) {
				t.Fatalf("%s: %s cost %v != Hungarian %v", label, algo, m[algo].Cost, hung.Cost)
			}
		}
	}
}

// The three index construction policies must not change the matching
// cost; STR (packed) must not lose to the dynamic builds on I/O.
func TestIndexPolicyInvariants(t *testing.T) {
	t.Parallel()
	rows, err := NewConfig().IndexPolicy(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	base := rows[0]
	if base.Label != "STR" {
		t.Fatalf("first row should be STR, got %s", base.Label)
	}
	for _, r := range rows[1:] {
		if math.Abs(r.Cost-base.Cost) > 1e-6*(1+base.Cost) {
			t.Fatalf("%s changed the optimal cost: %v vs %v", r.Label, r.Cost, base.Cost)
		}
		if base.Faults > r.Faults+r.Faults/5 {
			t.Fatalf("STR should not need much more I/O than %s: %d vs %d faults",
				r.Label, base.Faults, r.Faults)
		}
	}
}
