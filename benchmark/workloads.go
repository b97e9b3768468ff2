package main

import "strings"

// The workloads. Slice sizes are fixed op counts (identical work on every
// commit) chosen to take about a quarter of a second on the builder
// machine; every slice holds at least 1000 timed ops, so its p99 has at
// least ten samples beyond it.
const kvSliceOps = 16_384 // per caller

var workloads = []*workload{
	{
		name:    "kv-serve-read",
		why:     "zipfian 95% GET / 5% in-place PUT through 2 workers: netrpc+serving own ~90% of the op, so wire-layer and read-path work shows here",
		netRef:  true,
		callers: 2, sliceOps: kvSliceOps, setups: 5,
		setup: setupServe(kvMix{keys: kvKeys, buckets: kvBuckets, theta: 0.99, putFrac: 0.05}),
	},
	{
		name:    "kv-serve-write-scan",
		why:     "uniform 50% PUT (1 in 5 inserts) plus a 64-record SCAN every 64th op: big frames, allocation and lock hold time; a read-path gain paid by writers shows here",
		netRef:  true,
		callers: 2, sliceOps: kvSliceOps, setups: 5,
		setup: setupServe(kvMix{keys: kvKeys, buckets: kvBuckets, putFrac: 0.5, insertOf: 5, scanEvery: 64}),
	},
	{
		name:    "shm-churn",
		why:     "8 Mallocs, 2 embed links, 1 queue hand-off and the releases per op, no sockets, no kv: allocator, era refcounts, queue and cxl do all the work; the control for wire-layer changes",
		callers: 1, sliceOps: churnSliceOps, setups: 15,
		setup: setupChurn,
	},
	{
		name:    "crash-recover",
		why:     "a client dies holding 512 objects (4 huge, 32 shared with a survivor); op = fence + RecoverClient + one monitor tick: only recovery, shm segment scans and cxl run",
		callers: 1, sliceOps: recoverSliceOps, setups: 15,
		setup: setupRecover,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
