package main

import "time"

// The host's speed drifts by tens of percent over seconds (other tenants,
// frequency scaling), and a pure-CPU loop slows down with it as much as the
// engine does. Every round therefore also times a fixed calibration kernel,
// and all host-time metrics are scaled to a nominal host on which the kernel
// takes calibNominal: a time t measured while the kernel took c reports as
// t * calibNominal / c, with c the run's median. Counts and simulated times
// are never scaled. The facts line reports the raw kernel time.
//
// The kernel is hash-map churn, like the engine's own bookkeeping: of the
// kernels tried (random stores into a 4 MiB array, pointer-chasing
// allocation, map churn), it tracked the engine's throughput and restart
// time best across runs on a shared 2-CPU host.

// calibNominal is the kernel's time on the nominal host.
const calibNominal = 3 * time.Millisecond

const calibOps = 50_000

// calibSink keeps the kernel's result live.
var calibSink int

// calibrate runs the kernel once and returns its host time in nanoseconds.
func calibrate() int64 {
	t0 := time.Now()
	m := make(map[int]int, 1024)
	x := uint64(7)
	for i := 0; i < calibOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[int(x>>50)] += i
		if i%3 == 0 {
			delete(m, int(x>>52))
		}
	}
	calibSink += len(m)
	return int64(time.Since(t0))
}
