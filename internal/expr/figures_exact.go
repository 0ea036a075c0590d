package expr

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datagen"
)

// sweepExact runs the exact algorithms over a list of parameter points,
// one scheduled task per point (see runPoints): the algorithms within a
// point stay sequential on the point's own workload, points overlap
// when the scheduler has more than one worker.
func (c Config) sweepExact(points []Params, labels []string, algos []string) ([]Row, error) {
	return c.runPoints(len(points), func(i int) ([]Row, error) {
		w, err := c.Build(points[i])
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, algo := range algos {
			row, err := runExact(algo, w, c.coreOptions(points[i]))
			if err != nil {
				return nil, err
			}
			row.Label = labels[i]
			rows = append(rows, row)
		}
		return rows, nil
	})
}

func (c Config) coreOptions(p Params) core.Options {
	return core.Options{Theta: p.Theta, Space: Space, Shards: c.Shards}
}

// Fig8 reproduces Figure 8: CPU time vs capacity k on the small instance
// (|Q| = 250·s, |P| = 25000·s, memory R-tree) including the SSPA
// baseline. Expected shape: SSPA is one to three orders of magnitude
// slower than RIA/NIA/IDA across all k.
func (c Config) Fig8(s float64, out io.Writer) ([]Row, error) {
	ks := []int{20, 40, 80, 160, 320}
	points := make([]Params, len(ks))
	labels := make([]string, len(ks))
	for i, k := range ks {
		p := Default(s)
		p.NQ = max(1, int(250*s))
		p.NP = max(2, int(25000*s))
		p.K = k
		points[i] = p
		labels[i] = fmt.Sprintf("k=%d", k)
	}
	rows, err := c.sweepExact(points, labels, []string{"SSPA", "RIA", "NIA", "IDA"})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 8: CPU time vs k (small instance, scale %g, SSPA baseline)", s), rows, false)
	}
	return rows, nil
}

// Fig9 reproduces Figure 9: |Esub| and total time vs capacity k at the
// default cardinalities. Expected shape: |Esub| ≪ FULL for all methods;
// IDA explores the fewest edges while k·|Q| < |P|, and the advantage
// disappears once k·|Q| > |P|.
func (c Config) Fig9(s float64, out io.Writer) ([]Row, error) {
	ks := []int{20, 40, 80, 160, 320}
	points := make([]Params, len(ks))
	labels := make([]string, len(ks))
	for i, k := range ks {
		p := Default(s)
		p.K = k
		points[i] = p
		labels[i] = fmt.Sprintf("k=%d", k)
	}
	rows, err := c.sweepExact(points, labels, c.ExactAlgos)
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 9: |Esub| and time vs k (scale %g)", s), rows, false)
	}
	return rows, nil
}

// Fig10 reproduces Figure 10: performance vs |Q| ∈ {0.25, 0.5, 1, 2.5,
// 5}K (scaled). Expected shape: cost grows with |Q| but saturates once
// k·|Q| > |P|.
func (c Config) Fig10(s float64, out io.Writer) ([]Row, error) {
	qs := []int{250, 500, 1000, 2500, 5000}
	var points []Params
	var labels []string
	for _, nq := range qs {
		p := Default(s)
		p.NQ = max(1, int(float64(nq)*s))
		points = append(points, p)
		labels = append(labels, fmt.Sprintf("|Q|=%g", float64(nq)/1000))
	}
	rows, err := c.sweepExact(points, labels, c.ExactAlgos)
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 10: performance vs |Q| (scale %g)", s), rows, false)
	}
	return rows, nil
}

// Fig11 reproduces Figure 11: performance vs |P| ∈ {25, 50, 100, 150,
// 200}K (scaled). Expected shape: the subgraph *shrinks* as |P| grows
// (denser customers mean closer NNs), modulo an I/O bump when the R-tree
// gains a level.
func (c Config) Fig11(s float64, out io.Writer) ([]Row, error) {
	ps := []int{25000, 50000, 100000, 150000, 200000}
	var points []Params
	var labels []string
	for _, np := range ps {
		p := Default(s)
		p.NP = max(2, int(float64(np)*s))
		points = append(points, p)
		labels = append(labels, fmt.Sprintf("|P|=%dK", np/1000))
	}
	rows, err := c.sweepExact(points, labels, c.ExactAlgos)
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 11: performance vs |P| (scale %g)", s), rows, false)
	}
	return rows, nil
}

// Fig12 reproduces Figure 12: mixed capacities drawn uniformly from the
// labelled ranges. Expected shape: same trends as Figure 9 — mixing does
// not hurt the pruning.
func (c Config) Fig12(s float64, out io.Writer) ([]Row, error) {
	ranges := [][2]int{{10, 30}, {20, 60}, {40, 120}, {80, 240}, {160, 480}}
	var points []Params
	var labels []string
	for _, r := range ranges {
		p := Default(s)
		p.KLo, p.KHi = r[0], r[1]
		points = append(points, p)
		labels = append(labels, fmt.Sprintf("%d~%d", r[0], r[1]))
	}
	rows, err := c.sweepExact(points, labels, c.ExactAlgos)
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 12: mixed capacities (scale %g)", s), rows, false)
	}
	return rows, nil
}

// Fig13 reproduces Figure 13: every combination of uniform/clustered Q
// and P. Expected shape: differently-distributed Q and P inflate |Esub|
// and cost substantially, and NIA falls behind RIA there (one-by-one
// edge retrieval is invoked too many times).
func (c Config) Fig13(s float64, out io.Writer) ([]Row, error) {
	combos := []struct {
		q, p datagen.Distribution
	}{
		{datagen.Uniform, datagen.Uniform},
		{datagen.Uniform, datagen.Clustered},
		{datagen.Clustered, datagen.Uniform},
		{datagen.Clustered, datagen.Clustered},
	}
	var points []Params
	var labels []string
	for _, c := range combos {
		p := Default(s)
		p.DistQ, p.DistP = c.q, c.p
		points = append(points, p)
		labels = append(labels, fmt.Sprintf("%svs%s", c.q, c.p))
	}
	rows, err := c.sweepExact(points, labels, c.ExactAlgos)
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 13: distribution combinations (scale %g)", s), rows, false)
	}
	return rows, nil
}
