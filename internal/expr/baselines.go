package expr

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rtree"
	"repro/internal/storage"
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

// IndexPolicy compares the R-tree construction policies' effect on IDA's
// I/O: STR bulk loading (the evaluation default), dynamic insertion with
// Guttman's quadratic split, and dynamic insertion with the R* split
// [2]. Expected shape: STR (packed, square MBRs) needs the least I/O;
// R* beats quadratic on clustered data; the matching cost is identical
// under all three (the index changes access paths, not the optimum).
func (c Config) IndexPolicy(s float64, out io.Writer) ([]Row, error) {
	p := Default(s)
	net := datagen.NewNetwork(32, Space, p.Seed)
	qpts := net.Points(datagen.Config{N: p.NQ, Dist: p.DistQ, Seed: p.Seed + 1})
	ppts := net.Points(datagen.Config{N: p.NP, Dist: p.DistP, Seed: p.Seed + 2})
	providers := make([]core.Provider, p.NQ)
	for i := range providers {
		providers[i] = core.Provider{Pt: qpts[i], Cap: p.K}
	}
	items := datagen.Items(ppts)

	build := func(kind string) (*rtree.Tree, *storage.Buffer, error) {
		store := storage.NewMemStore(storage.DefaultPageSize)
		loadBuf := storage.NewBuffer(store, 1<<20)
		var (
			tree *rtree.Tree
			err  error
		)
		switch kind {
		case "STR":
			tree, err = rtree.Bulk(loadBuf, items)
		case "quadratic":
			tree, err = rtree.NewWithPolicy(loadBuf, rtree.Quadratic)
		case "R*":
			tree, err = rtree.NewWithPolicy(loadBuf, rtree.RStar)
		}
		if err != nil {
			return nil, nil, err
		}
		if kind != "STR" {
			for _, it := range items {
				if err := tree.Insert(it); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := tree.Flush(); err != nil {
			return nil, nil, err
		}
		frames := store.NumPages() / 100
		if frames < 4 {
			frames = 4
		}
		buf := storage.NewBuffer(store, frames)
		queryTree, err := rtree.Open(buf)
		return queryTree, buf, err
	}

	kinds := []string{"STR", "quadratic", "R*"}
	rows, err := c.runPoints(len(kinds), func(i int) ([]Row, error) {
		tree, buf, err := build(kinds[i])
		if err != nil {
			return nil, err
		}
		w := &Workload{Providers: providers, Tree: tree, Buffer: buf, Items: items}
		row, err := runExact("IDA", w, c.coreOptions(p))
		if err != nil {
			return nil, err
		}
		row.Label = kinds[i]
		return []Row{row}, nil
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		PrintRows(out, fmt.Sprintf("Index construction policy vs IDA I/O (scale %g)", s), rows, false)
	}
	return rows, nil
}
