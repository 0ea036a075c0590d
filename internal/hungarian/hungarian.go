// Package hungarian implements the Hungarian (Kuhn–Munkres) algorithm
// for the assignment problem, the classical main-memory baseline the
// paper discusses in §2.1 [8, 11].
//
// The paper notes that the Hungarian algorithm "constructs a cost matrix
// with |Q|·|P| entries … This solution is limited to small problem
// instances; it becomes infeasible even for moderate-sized problems, as
// the aforementioned matrix may not fit in main memory." This package
// exists to reproduce that claim quantitatively (see the ablation
// benches): CCA with capacities is reduced to one-to-one assignment by
// replicating each provider q.k times, so the matrix has (Σ q.k)·|P|
// entries and the O(n³) algorithm collapses quickly as instances grow.
//
// The implementation is the O(n³) shortest-augmenting-path formulation
// (Jonker–Volgenant style dual potentials) on a rectangular cost matrix.
package hungarian

import (
	"errors"
	"math"
)

// ErrShape is returned when the cost matrix is empty or ragged.
var ErrShape = errors.New("hungarian: cost matrix must be rectangular and non-empty")

// ErrNoFiniteAssignment is returned when a row can reach no free column
// at a finite reduced cost: costs that are infinite or NaN, or so large
// that the dual potentials overflow.
var ErrNoFiniteAssignment = errors.New("hungarian: no assignment of finite cost (costs overflow)")

// SolveCancel computes a minimum-cost assignment of rows to columns for
// the given cost matrix (len(cost) rows, len(cost[0]) columns, rows ≤
// columns; transpose if needed). It returns, for each row, the column
// assigned to it, plus the total cost. cancel (when non-nil) is polled
// once per column scan — the Θ(n³) work is n rows of shortest-path
// search, each at most m scans of O(m) — and its error is returned
// verbatim. The CCA solver threads the caller's context in this way.
func SolveCancel(cost [][]float64, cancel func() error) ([]int, float64, error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, ErrShape
	}
	m := len(cost[0])
	for _, row := range cost {
		if len(row) != m {
			return nil, 0, ErrShape
		}
	}
	if n > m {
		return nil, 0, errors.New("hungarian: more rows than columns; transpose the matrix")
	}

	// 1-based arrays per the classical formulation.
	u := make([]float64, n+1) // row duals
	v := make([]float64, m+1) // column duals
	match := make([]int, m+1) // column -> row (0 = free)
	way := make([]int, m+1)   // alternating-path back-pointers
	for i := 1; i <= n; i++ {
		match[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			if cancel != nil {
				if err := cancel(); err != nil {
					return nil, 0, err
				}
			}
			used[j0] = true
			i0 := match[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 == 0 {
				return nil, 0, ErrNoFiniteAssignment
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[match[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if match[j0] == 0 {
				break
			}
		}
		// Augment along the alternating path.
		for j0 != 0 {
			j1 := way[j0]
			match[j0] = match[j1]
			j0 = j1
		}
	}

	assign := make([]int, n)
	total := 0.0
	for j := 1; j <= m; j++ {
		if match[j] > 0 {
			assign[match[j]-1] = j - 1
			total += cost[match[j]-1][j-1]
		}
	}
	return assign, total, nil
}
