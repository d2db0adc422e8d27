// Package stats provides the operation-level instrumentation behind the
// paper's breakdown analysis (Table 3) and hit-rate plots (Figure 7): a
// fixed per-operation table of latency histograms and item counts, and
// a sliding-window hit-rate series. Each core.Engine owns one table; an
// operation's calls and items are the work internal/device prices.
//
// A nil *Collector, *Histogram or *HitRate is valid and free: every
// method no-ops or returns zero.
package stats

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Op is one operation of Algorithm 1: a row of Table 3. The values run
// in the table's row order, then the feature gathers and the time
// table's upload, which the paper does not list.
type Op int

const (
	OpNghLookup Op = iota
	OpDedupFilter
	OpDedupInvert
	OpTimeEncZero
	OpTimeEncDelta
	OpComputeKeys
	OpCacheLookup
	OpCacheStore
	OpAttention
	OpFeatLookup
	OpTransfer
	// NumOps is the number of operations.
	NumOps
)

var opNames = [NumOps]string{
	"NghLookup", "DedupFilter", "DedupInvert", "TimeEncode(0)", "TimeEncode(dt)",
	"ComputeKeys", "CacheLookup", "CacheStore", "attention M", "FeatLookup", "DeviceTransfer",
}

// String returns the operation's Table 3 row name.
func (o Op) String() string { return opNames[o] }

// Collector is the per-operation table: for each Op, a latency
// histogram whose Count is the op's calls and whose Sum is its wall
// time, and an item counter. Every update is an atomic add, so it is
// safe for concurrent use and its hot path takes no lock.
type Collector struct {
	ops [NumOps]struct {
		wall  Histogram
		items atomic.Int64
	}
}

// NewCollector returns an empty table.
func NewCollector() *Collector { return &Collector{} }

// Observe records one call of op that took d and handled n items.
func (c *Collector) Observe(op Op, d time.Duration, n int64) {
	if c == nil {
		return
	}
	r := &c.ops[op]
	r.wall.Observe(d)
	r.items.Add(n)
}

// Hist returns op's latency histogram (nil on a nil table).
func (c *Collector) Hist(op Op) *Histogram {
	if c == nil {
		return nil
	}
	return &c.ops[op].wall
}

// Items returns the items op handled.
func (c *Collector) Items(op Op) int64 {
	if c == nil {
		return 0
	}
	return c.ops[op].items.Load()
}

// Calls returns how many times op was observed.
func (c *Collector) Calls(op Op) int64 { return c.Hist(op).Count() }

// Duration returns op's accumulated wall time.
func (c *Collector) Duration(op Op) time.Duration { return c.Hist(op).Sum() }

// Total returns the wall time of all operations.
func (c *Collector) Total() time.Duration {
	var total time.Duration
	for op := range NumOps {
		total += c.Duration(op)
	}
	return total
}

// Durations returns the wall time of every operation observed at least
// once.
func (c *Collector) Durations() map[Op]time.Duration {
	out := make(map[Op]time.Duration)
	for op := range NumOps {
		if c.Calls(op) > 0 {
			out[op] = c.Duration(op)
		}
	}
	return out
}

// String renders one row per observed operation, in Table 3 order: its
// wall time, items and calls.
func (c *Collector) String() string {
	var b strings.Builder
	for op := range NumOps {
		if calls := c.Calls(op); calls > 0 {
			fmt.Fprintf(&b, "%-16s %10.4fs %12d items %8d calls\n", op, c.Duration(op).Seconds(), c.Items(op), calls)
		}
	}
	return b.String()
}

// HitRate tracks cache hits per batch and reports both the overall
// average hit rate and a sliding-window average over the last W batches,
// reproducing the Figure 7 series.
type HitRate struct {
	mu      sync.Mutex
	window  int
	batches []float64 // per-batch hit rates
	hits    int64
	lookups int64
}

// NewHitRate creates a tracker with the given sliding-window width
// (the paper uses 10 batches).
func NewHitRate(window int) *HitRate {
	if window < 1 {
		window = 1
	}
	return &HitRate{window: window}
}

// Record adds one batch's lookup outcome.
func (h *HitRate) Record(hits, lookups int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hits += int64(hits)
	h.lookups += int64(lookups)
	if lookups > 0 {
		h.batches = append(h.batches, float64(hits)/float64(lookups))
	} else {
		h.batches = append(h.batches, 0)
	}
}

// Average returns the overall hit rate across all lookups.
func (h *HitRate) Average() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lookups == 0 {
		return 0
	}
	return float64(h.hits) / float64(h.lookups)
}

// Windowed returns, for each batch index, the hit rate averaged over the
// trailing window of batches ending there.
func (h *HitRate) Windowed() []float64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.batches))
	var sum float64
	for i, v := range h.batches {
		sum += v
		if i >= h.window {
			sum -= h.batches[i-h.window]
		}
		n := i + 1
		if n > h.window {
			n = h.window
		}
		out[i] = sum / float64(n)
	}
	return out
}
