package main

import (
	"math/rand"
)

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	name string
	why  string
	// Deployment.
	strategy  string // fragmentation strategy passed to serve and site
	networked bool   // every site in separate `rdffrag site` processes
	churn     bool   // durable, with the open-loop writer beside the reader
	clients   int    // closed-loop query connections
	// ops builds the replayed sequence and the cycle length that
	// segments are cut at (it divides the sequence's length).
	ops func(pools entityPools, seed int64) (ops []op, cycleLen int)
	// warmCycles is the least number of cycles the untimed warm-up runs.
	warmCycles int
}

// analyticSlots is wd-analytic's cycle: constant-free templates weighted
// so that the median falls inside one template's latency band and the
// 95th percentile inside the slowest one's, not on a boundary between
// two (see README.md, "Band boundaries").
var analyticSlots = []string{"C2", "C2", "F1", "F1", "F3", "F3", "F3", "C1", "C1", "L5", "L5", "F5"}

var workloads = []workload{
	{
		name:     "wd-selective",
		why:      "3000 distinct constant-anchored queries, 12x the plan cache: every query pays parse+decompose+plan; only workload on horizontal fragmentation",
		strategy: "horizontal", clients: 1, warmCycles: 1,
		ops: func(pools entityPools, seed int64) ([]op, int) {
			r := rand.New(rand.NewSource(seed))
			return pool([]string{"L1", "L3", "L4", "S1", "S3", "S4", "S5", "S6", "F2", "F4"}, 3000, pools, r), 600
		},
	},
	{
		name:     "wd-analytic",
		why:      "six constant-free queries with 1-12 MB answers, always plan-cache hits: matching, joins, decoding and JSON writing do the work, planning none",
		strategy: "vertical", clients: 1, warmCycles: 1,
		ops: func(pools entityPools, seed int64) ([]op, int) {
			r := rand.New(rand.NewSource(seed))
			ops := make([]op, len(analyticSlots))
			for i, name := range analyticSlots {
				ops[i] = op{template: name, text: instantiate(name, pools, r)}
			}
			r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			return ops, len(ops)
		},
	},
	{
		name:     "wd-networked",
		why:      "all four sites in two separate site processes, 2 clients, 240 cached query instances: the only workload where the NDJSON transport carries every subquery",
		strategy: "vertical", networked: true, clients: 2, warmCycles: 2,
		ops: func(pools entityPools, seed int64) ([]op, int) {
			r := rand.New(rand.NewSource(seed))
			// 240 distinct queries fit the 256-entry plan cache.
			ops := pool([]string{"L1", "L2", "L3", "S1", "S6", "S7", "F2", "F4", "C3"}, 240, pools, r)
			return ops, len(ops)
		},
	},
	{
		name:     "wd-churn",
		why:      "reads beside fsynced writes: closed-loop reader plus an open-loop 100 batch/s insert/overwrite/delete writer on a durable server with checkpoints",
		strategy: "vertical", churn: true, clients: 1, warmCycles: 2,
		ops: func(pools entityPools, seed int64) ([]op, int) {
			r := rand.New(rand.NewSource(seed))
			static := pool([]string{"S5", "L1", "S6"}, 128, pools, r)
			// Two pool queries, then one point read of a churned key.
			var ops []op
			for i, o := range static {
				ops = append(ops, o)
				if i%2 == 1 {
					k := (i / 2) % churnKeys
					ops = append(ops, op{template: pointReadTemplate, text: pointRead(seed, k), key: k})
				}
			}
			return ops, len(ops)
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
