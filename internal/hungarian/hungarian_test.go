package hungarian

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnown(t *testing.T) {
	tests := []struct {
		name string
		cost [][]float64
		want float64
	}{
		{
			"textbook 3x3",
			[][]float64{
				{4, 1, 3},
				{2, 0, 5},
				{3, 2, 2},
			},
			5, // (0,1)=1 + (1,0)=2 + (2,2)=2
		},
		{
			"identity best",
			[][]float64{
				{0, 9, 9},
				{9, 0, 9},
				{9, 9, 0},
			},
			0,
		},
		{
			"anti-diagonal best",
			[][]float64{
				{9, 9, 0},
				{9, 0, 9},
				{0, 9, 9},
			},
			0,
		},
		{
			"single cell",
			[][]float64{{7}},
			7,
		},
		{
			"rectangular 2x4",
			[][]float64{
				{5, 1, 8, 9},
				{4, 6, 2, 3},
			},
			3, // 1 + 2
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			assign, total, err := SolveCancel(tc.cost, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(total-tc.want) > 1e-9 {
				t.Fatalf("total %v want %v (assign %v)", total, tc.want, assign)
			}
			// Assignment must be a matching into distinct columns.
			seen := map[int]bool{}
			sum := 0.0
			for r, c := range assign {
				if c < 0 || c >= len(tc.cost[0]) || seen[c] {
					t.Fatalf("invalid assignment %v", assign)
				}
				seen[c] = true
				sum += tc.cost[r][c]
			}
			if math.Abs(sum-total) > 1e-9 {
				t.Fatalf("reported total %v != recomputed %v", total, sum)
			}
		})
	}
}

func TestSolveErrors(t *testing.T) {
	if _, _, err := SolveCancel(nil, nil); err == nil {
		t.Error("empty matrix must fail")
	}
	if _, _, err := SolveCancel([][]float64{{1, 2}, {3}}, nil); err == nil {
		t.Error("ragged matrix must fail")
	}
	if _, _, err := SolveCancel([][]float64{{1}, {2}}, nil); err == nil {
		t.Error("more rows than columns must fail")
	}
	// A row with no finite-cost column used to spin forever.
	for _, cost := range [][][]float64{
		{{math.Inf(1), math.Inf(1)}},
		{{1, 2}, {math.NaN(), math.NaN()}},
	} {
		if _, _, err := SolveCancel(cost, nil); !errors.Is(err, ErrNoFiniteAssignment) {
			t.Errorf("%v: err %v, want ErrNoFiniteAssignment", cost, err)
		}
	}
}

// Property: on square matrices up to 7x7, the Hungarian optimum equals
// brute-force enumeration over all permutations.
func TestSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64()*100) / 10
			}
		}
		_, got, err := SolveCancel(cost, nil)
		if err != nil {
			return false
		}
		want := bruteForce(cost)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int, cur float64)
	rec = func(k int, cur float64) {
		if cur >= best {
			return
		}
		if k == n {
			best = cur
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k+1, cur+cost[k][perm[k]])
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0, 0)
	return best
}

func BenchmarkSolve100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 100
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveCancel(cost, nil); err != nil {
			b.Fatal(err)
		}
	}
}
