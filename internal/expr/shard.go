package expr

import (
	"fmt"
	"io"
	"runtime"
)

// ShardScaling is the sharded-solving trajectory behind
// BENCH_shard.json: one large instance (the Table 2 default at the
// given scale), solved serially by the base and then by sharded:<base>
// across a shard-count sweep. Expected shape: wall time drops toward
// serial/min(k, cores) while the cost column stays within the
// documented gap of the serial optimum — the measured tradeoff the
// README's "Sharded solving" section quotes.
func (c Config) ShardScaling(s float64, out io.Writer) ([]Row, error) {
	p := Default(s)
	p.K = 8 // smaller capacities keep the serial baseline tractable at any scale
	w, err := c.Build(p)
	if err != nil {
		return nil, err
	}
	base := "ida"
	var rows []Row
	serial, err := runExact(base, w, c.coreOptions(p))
	if err != nil {
		return nil, err
	}
	serial.Label = "serial"
	rows = append(rows, serial)
	for _, k := range []int{2, 4, 8} {
		opts := c.coreOptions(p)
		opts.Shards = k
		row, err := runExact("sharded:"+base, w, opts)
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("k=%d", k)
		row.Quality = row.Cost / serial.Cost
		rows = append(rows, row)
	}
	PrintRows(out, fmt.Sprintf("Sharded scaling: %s vs sharded:%s, |Q|=%d |P|=%d k(cap)=%d, %d workers",
		base, base, p.NQ, p.NP, p.K, runtime.GOMAXPROCS(0)), rows, true)
	return rows, nil
}
