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
