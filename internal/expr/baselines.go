package expr

import (
	"fmt"
	"io"
)

// BaselineScaling reproduces §2.1's claim that the classical main-memory
// baselines stop scaling long before the incremental methods: it runs
// the Hungarian algorithm, SSPA and IDA on growing instances (fixed
// k·|Q|/|P| ratio) and reports CPU time. Expected shape: Hungarian's
// Θ(n³) blows up first, SSPA's Θ(γ·|Q|·|P|) second, while IDA stays
// comfortably ahead; eventually Hungarian refuses outright (matrix too
// large), which is reported as a table note.
func (c Config) BaselineScaling(s float64, out io.Writer) ([]Row, error) {
	sizes := []struct {
		nq, np, k int
	}{
		{5, 250, 4},
		{10, 1000, 8},
		{20, 4000, 16},
		{40, 16000, 32},
	}
	rows, err := c.runPoints(len(sizes), func(i int) ([]Row, error) {
		p := Default(s)
		p.NQ = max(1, int(float64(sizes[i].nq)*s*20)) // s=0.05 → the sizes above
		p.NP = max(2, int(float64(sizes[i].np)*s*20))
		p.K = sizes[i].k
		w, err := c.Build(p)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("|Q|=%d,|P|=%d", p.NQ, p.NP)

		hungRow, err := runExact("hungarian", w, c.coreOptions(p))
		if err != nil {
			// The §2.1 blow-up: report as an unavailable point.
			hungRow = Row{Algo: "Hungarian(refused)"}
		} else {
			hungRow.Algo = "Hungarian"
		}
		hungRow.Label = label
		rows := []Row{hungRow}

		sspaRow, err := runExact("SSPA", w, c.coreOptions(p))
		if err != nil {
			return nil, err
		}
		sspaRow.Label = label
		rows = append(rows, sspaRow)

		idaRow, err := runExact("IDA", w, c.coreOptions(p))
		if err != nil {
			return nil, err
		}
		idaRow.Label = label
		return append(rows, idaRow), nil
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Baseline scaling (§2.1): Hungarian vs SSPA vs IDA (scale %g)", s), rows, false)
	}
	return rows, nil
}
