package expr

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/solver"
)

// approxVariant names one approximate configuration: a registry solver
// (sa or ca) with the NN-based ("N") or exclusive-NN ("E") refinement —
// the paper's SAN, SAE, CAN, CAE series.
type approxVariant struct {
	name   string
	solver string
	refine solver.Refinement
}

var approxVariants = []approxVariant{
	{"SAN", "sa", solver.RefineNN},
	{"SAE", "sa", solver.RefineExclusive},
	{"CAN", "ca", solver.RefineNN},
	{"CAE", "ca", solver.RefineExclusive},
}

// runApprox executes one approximate variant cold and fills a Row; opt
// is the optimal cost used for the quality ratio.
func runApprox(v approxVariant, w *Workload, delta float64, opt float64) (Row, error) {
	s, err := solver.Get(v.solver)
	if err != nil {
		return Row{}, fmt.Errorf("expr: %w", err)
	}
	w.Buffer.DropCache()
	w.Buffer.ResetStats()
	io0 := w.Buffer.Stats()
	// The workload's metric rides along so the quality ratio compares
	// costs measured the same way as the exact reference. (Theorems 3–4
	// bound the error for the Euclidean metric only.)
	opts := solver.Options{Delta: delta, Refinement: v.refine, Core: core.Options{Space: Space, Metric: w.Metric}}
	res, err := s.Solve(context.Background(), w.Providers, w.Dataset(), opts)
	if err != nil {
		return Row{}, fmt.Errorf("expr: %s: %w", v.name, err)
	}
	ioN := w.Buffer.Stats()
	faults := ioN.Faults - io0.Faults
	quality := 1.0
	if opt > 0 {
		quality = res.Cost / opt
	}
	return Row{
		Algo:    v.name,
		Esub:    res.ConciseEdges,
		CPU:     res.Metrics.CPUTime,
		IO:      time.Duration(faults) * 10 * time.Millisecond,
		Faults:  faults,
		Cost:    res.Cost,
		Quality: quality,
		Size:    res.Size,
	}, nil
}

// deltaFor returns the paper's tuned δ per method (40 for SA, 10 for CA)
// used by Figures 15–18.
func deltaFor(v approxVariant) float64 {
	if v.solver == "sa" {
		return approx.DefaultDeltaSA
	}
	return approx.DefaultDeltaCA
}

// approxPoint measures IDA (as both the exact reference and a series of
// its own) plus all four approximate variants at one parameter point.
func (c Config) approxPoint(p Params, label string, deltas func(approxVariant) float64) ([]Row, error) {
	w, err := c.Build(p)
	if err != nil {
		return nil, err
	}
	idaRow, err := runExact("IDA", w, c.coreOptions(p))
	if err != nil {
		return nil, err
	}
	idaRow.Label = label
	idaRow.Quality = 1
	rows := []Row{idaRow}
	for _, v := range approxVariants {
		row, err := runApprox(v, w, deltas(v), idaRow.Cost)
		if err != nil {
			return nil, err
		}
		row.Label = label
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig14 reproduces Figure 14: approximation quality and running time as
// a function of δ. Expected shape: quality degrades and time improves
// as δ grows; CA dominates SA except at the smallest δ; CA at δ=10 is
// near-optimal and much faster than IDA.
func (c Config) Fig14(s float64, out io.Writer) ([]Row, error) {
	deltas := []float64{10, 20, 40, 80, 160}
	rows, err := c.runPoints(len(deltas), func(i int) ([]Row, error) {
		d := deltas[i]
		return c.approxPoint(Default(s), fmt.Sprintf("δ=%g", d),
			func(approxVariant) float64 { return d })
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 14: approximation quality/time vs δ (scale %g)", s), rows, true)
	}
	return rows, nil
}

// Fig15 reproduces Figure 15: approximation quality and time vs k with
// the tuned δ (SA: 40, CA: 10). Expected shape: quality improves with k;
// CA stays within ~10–25% of optimal and is several times faster than
// IDA.
func (c Config) Fig15(s float64, out io.Writer) ([]Row, error) {
	ks := []int{20, 40, 80, 160, 320}
	rows, err := c.runPoints(len(ks), func(i int) ([]Row, error) {
		p := Default(s)
		p.K = ks[i]
		return c.approxPoint(p, fmt.Sprintf("k=%d", ks[i]), deltaFor)
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 15: approximation vs k (scale %g)", s), rows, true)
	}
	return rows, nil
}

// Fig16 reproduces Figure 16: approximation vs |Q|. Expected shape: CA
// beats SA throughout; CA quality degrades mildly as |Q| grows (more
// providers near each customer group mean more chances for a suboptimal
// pair).
func (c Config) Fig16(s float64, out io.Writer) ([]Row, error) {
	qs := []int{250, 500, 1000, 2500, 5000}
	rows, err := c.runPoints(len(qs), func(i int) ([]Row, error) {
		p := Default(s)
		p.NQ = max(1, int(float64(qs[i])*s))
		return c.approxPoint(p, fmt.Sprintf("|Q|=%g", float64(qs[i])/1000), deltaFor)
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 16: approximation vs |Q| (scale %g)", s), rows, true)
	}
	return rows, nil
}

// Fig17 reproduces Figure 17: approximation vs |P|. Expected shape: SA
// quality degrades as |P| grows (denser customers around provider
// groups); CA is much less affected.
func (c Config) Fig17(s float64, out io.Writer) ([]Row, error) {
	ps := []int{25000, 50000, 100000, 150000, 200000}
	rows, err := c.runPoints(len(ps), func(i int) ([]Row, error) {
		p := Default(s)
		p.NP = max(2, int(float64(ps[i])*s))
		return c.approxPoint(p, fmt.Sprintf("|P|=%dK", ps[i]/1000), deltaFor)
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 17: approximation vs |P| (scale %g)", s), rows, true)
	}
	return rows, nil
}

// Fig18 reproduces Figure 18: approximation across distribution
// combinations. Expected shape: CA is fastest everywhere and more
// accurate than SA when Q and P are distributed alike; with differing
// distributions both are close to optimal.
func (c Config) Fig18(s float64, out io.Writer) ([]Row, error) {
	combos := []struct {
		q, p datagen.Distribution
	}{
		{datagen.Uniform, datagen.Uniform},
		{datagen.Uniform, datagen.Clustered},
		{datagen.Clustered, datagen.Uniform},
		{datagen.Clustered, datagen.Clustered},
	}
	rows, err := c.runPoints(len(combos), func(i int) ([]Row, error) {
		p := Default(s)
		p.DistQ, p.DistP = combos[i].q, combos[i].p
		return c.approxPoint(p, fmt.Sprintf("%svs%s", combos[i].q, combos[i].p), deltaFor)
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Figure 18: approximation across distributions (scale %g)", s), rows, true)
	}
	return rows, nil
}
