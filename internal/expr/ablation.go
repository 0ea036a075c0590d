package expr

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Ablation measures the design choices the paper calls out in §3.3–§3.4
// by disabling them one at a time on the default workload:
//
//   - IDA without the Theorem 2 fast path (§3.3);
//   - NIA without PUA Dijkstra reuse (§3.4.1);
//   - IDA without the grouped incremental ANN search (§3.4.2);
//   - the greedy SM join (related work, §2.3), to quantify the cost gap
//     between greedy local assignment and the optimal matching.
//
// Expected shape: every optimization reduces CPU time (T2, PUA) or I/O
// (ANN) without changing the matching cost; SM is fast but measurably
// more expensive in Ψ(M).
func (c Config) Ablation(s float64, out io.Writer) ([]Row, error) {
	p := Default(s)
	w, err := c.Build(p)
	if err != nil {
		return nil, err
	}
	base := c.coreOptions(p)
	configs := []struct {
		label string
		algo  string
		opts  core.Options
	}{
		{"IDA (full)", "IDA", base},
		{"IDA -Theorem2", "IDA", with(base, func(o *core.Options) { o.DisableTheorem2 = true })},
		{"IDA -PUA", "IDA", with(base, func(o *core.Options) { o.DisablePUA = true })},
		{"IDA -ANN", "IDA", with(base, func(o *core.Options) { o.DisableANN = true })},
		{"IDA bare", "IDA", with(base, func(o *core.Options) {
			o.DisableTheorem2 = true
			o.DisablePUA = true
			o.DisableANN = true
		})},
		{"NIA (full)", "NIA", base},
		{"NIA -PUA", "NIA", with(base, func(o *core.Options) { o.DisablePUA = true })},
		{"SM greedy", "SM", base},
	}
	// One scheduled point: the configs share a single workload, so they
	// must stay sequential on its buffer.
	rows, err := c.runPoints(1, func(int) ([]Row, error) {
		var rows []Row
		for _, cfg := range configs {
			row, err := runExact(cfg.algo, w, cfg.opts)
			if err != nil {
				return nil, err
			}
			row.Label = cfg.label
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Ablation: optimizations of §3.3–§3.4 (scale %g)", s), rows, false)
	}
	return rows, nil
}

func with(o core.Options, f func(*core.Options)) core.Options {
	f(&o)
	return o
}

// ThetaSensitivity measures RIA's sensitivity to its θ parameter (§3.2
// motivates NIA by how hard θ is to tune): small θ multiplies range
// searches (I/O), large θ bloats Esub (CPU).
func (c Config) ThetaSensitivity(s float64, out io.Writer) ([]Row, error) {
	p := Default(s)
	w, err := c.Build(p)
	if err != nil {
		return nil, err
	}
	// One scheduled point: the θ settings share the workload's buffer.
	rows, err := c.runPoints(1, func(int) ([]Row, error) {
		var rows []Row
		for _, theta := range []float64{0.2, 0.8, 3.2, 12.8, 51.2} {
			opts := c.coreOptions(p)
			opts.Theta = theta
			row, err := runExact("RIA", w, opts)
			if err != nil {
				return nil, err
			}
			row.Label = fmt.Sprintf("θ=%g", theta)
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("RIA θ sensitivity (scale %g)", s), rows, false)
	}
	return rows, nil
}
