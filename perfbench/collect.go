package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"time"
)

// A run switches the collector's pacing off (see measure) and collects at
// points the benchmark chooses: between rounds, and whenever gcEvery bytes were
// allocated since the last collection, checked once every gcCheckSweeps
// round-robin sweeps and once per seeded page. The work done between two
// checks is fixed by the seed, so collections land at nearly the same place
// in every run, and a collection inside a timed phase is a stop-the-world
// cost that phase pays in full instead of a background cycle racing it.
const (
	gcEvery       = 64 << 20
	gcCheckSweeps = 16
)

// collector tracks the allocation volume at the last collection and the
// host time collections took.
type collector struct {
	sample []rtmetrics.Sample
	last   uint64
	ns     int64
}

func newCollector() *collector {
	return &collector{sample: []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (c *collector) allocated() uint64 {
	rtmetrics.Read(c.sample)
	return c.sample[0].Value.Uint64()
}

// collect runs a full collection now.
func (c *collector) collect() {
	t0 := time.Now()
	runtime.GC()
	c.ns += int64(time.Since(t0))
	c.last = c.allocated()
}

// maybe collects if gcEvery bytes were allocated since the last collection.
func (c *collector) maybe() {
	if c.allocated()-c.last >= gcEvery {
		c.collect()
	}
}
