package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/flowgraph"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
	"repro/internal/shard"
)

// exactFuzzSolvers are the solvers FuzzExactSolvers holds to the oracle.
var exactFuzzSolvers = []string{"ida", "nia", "ria", "sspa", "hungarian"}

// boundedFuzzSolvers are the solvers FuzzExactSolvers holds to the
// oracle's size and to a cost bound above the oracle's.
var boundedFuzzSolvers = []string{"sa", "ca", "sharded:ida"}

// fuzzCostLimit is the most solver name may cost under metric against
// the oracle's optimum want, or +Inf where no bound is documented: SA
// and CA carry Theorems 3–4's ErrorBound, which hold for the Euclidean
// metric only; the sharded meta-solver stays within shard.GapBound of
// the optimum under both.
func fuzzCostLimit(name, metric string, want float64, res *Result) float64 {
	switch {
	case name == "sharded:ida":
		return (1 + shard.GapBound) * want
	case metric == "euclidean":
		return want + res.ErrorBound
	default:
		return math.Inf(1)
	}
}

// fuzzInstance decodes a tiny CCA instance from data: 1–4 providers of
// capacity 1–4 and 1–14 customers. When the lattice bit is set every
// point sits on a 100-unit lattice over the 1000×1000 space, so equal
// distances — and the tie-breaks they exercise — are common. Bytes past
// the end of data read as zero.
func fuzzInstance(data []byte) ([]core.Provider, []geo.Point) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	head := next()
	lattice := head&1 == 1
	coord := func() float64 {
		if lattice {
			return float64(next()%11) * 100
		}
		return float64(uint16(next())<<8|uint16(next())) * 1000 / math.MaxUint16
	}
	providers := make([]core.Provider, 1+int(head>>1)%4)
	for i := range providers {
		providers[i].Cap = 1 + int(next())%4
		providers[i].Pt = geo.Point{X: coord(), Y: coord()}
	}
	pts := make([]geo.Point, 1+int(next())%14)
	for i := range pts {
		pts[i] = geo.Point{X: coord(), Y: coord()}
	}
	return providers, pts
}

// FuzzExactSolvers is a differential fuzz of the exact solvers: on tiny
// random instances, under the Euclidean metric and a 6×6 road network,
// each must return a feasible matching whose size and cost equal the
// Bellman–Ford oracle's (flowgraph.RefSolveMetric over the full cost
// matrix). It guards the heaps, the NN streams and the Theorem 1/2
// gates, which all have to agree on ties to stay exact. SA, CA and the
// sharded meta-solver must match the oracle's size and stay within
// their documented cost bounds (fuzzCostLimit).
func FuzzExactSolvers(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 3, 9, 1, 1, 2, 2, 5, 5, 3, 3})
	f.Add([]byte{7, 3, 0, 0, 3, 10, 10, 3, 0, 10, 3, 10, 0, 13, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9})
	f.Add([]byte{6, 1, 17, 200, 3, 9, 2, 40, 77, 0, 1, 9, 128, 64, 32, 16, 8, 4, 2, 1, 255, 254, 250, 3})
	// One metric for every input: its caches only memoize canonical
	// distances, and building it costs more than a whole fuzz input.
	network := netmetric.FromNetwork(datagen.NewNetwork(6, netSpace, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		providers, pts := fuzzInstance(data)
		fp := make([]flowgraph.Provider, len(providers))
		for i, p := range providers {
			fp[i] = flowgraph.Provider{Pt: p.Pt, Cap: p.Cap}
		}
		fc := make([]flowgraph.Customer, len(pts))
		for i, p := range pts {
			fc[i] = flowgraph.Customer{Pt: p, Cap: 1, ExtID: int64(i)}
		}
		ds := buildDataset(t, pts)
		for _, m := range []struct {
			name   string
			metric geo.Metric
		}{
			{"euclidean", geo.Euclidean},
			{"network", network},
		} {
			pairs, want := flowgraph.RefSolveMetric(fp, fc, 1, m.metric)
			opts := Options{}
			opts.Core.Metric = m.metric
			for _, name := range exactFuzzSolvers {
				res, err := MustGet(name).Solve(context.Background(), providers, ds, opts)
				if err != nil {
					t.Fatalf("%s under %s: %v", name, m.name, err)
				}
				validate(t, name+"/"+m.name, providers, len(pts), res)
				if res.Size != len(pairs) {
					t.Fatalf("%s under %s: size %d, oracle %d", name, m.name, res.Size, len(pairs))
				}
				if d := math.Abs(res.Cost - want); d > 1e-6 {
					t.Fatalf("%s under %s: cost %.9f, oracle %.9f (Δ %.3g)", name, m.name, res.Cost, want, d)
				}
			}
			for _, name := range boundedFuzzSolvers {
				res, err := MustGet(name).Solve(context.Background(), providers, ds, opts)
				if err != nil {
					t.Fatalf("%s under %s: %v", name, m.name, err)
				}
				validate(t, name+"/"+m.name, providers, len(pts), res)
				if res.Size != len(pairs) {
					t.Fatalf("%s under %s: size %d, oracle %d", name, m.name, res.Size, len(pairs))
				}
				if limit := fuzzCostLimit(name, m.name, want, res); res.Cost > limit+1e-6 {
					t.Fatalf("%s under %s: cost %.9f over its bound %.9f (oracle %.9f)", name, m.name, res.Cost, limit, want)
				}
			}
		}
	})
}
