// Package stats provides the lightweight operation-level instrumentation
// behind the paper's breakdown analysis (Table 3) and hit-rate plots
// (Figure 7): named wall-clock timers and counters, plus a sliding-window
// hit-rate tracker. An operation observed through Observe also leaves
// its item count and call count, the work internal/device prices.
//
// A nil *Collector is valid and free: every method no-ops, so hot paths
// can carry an optional collector without branching at call sites.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical operation names, matching Algorithm 1 of the paper and the
// rows of Table 3.
const (
	OpNghLookup    = "NghLookup"
	OpDedupFilter  = "DedupFilter"
	OpDedupInvert  = "DedupInvert"
	OpTimeEncZero  = "TimeEncode(0)"
	OpTimeEncDelta = "TimeEncode(dt)"
	OpComputeKeys  = "ComputeKeys"
	OpCacheLookup  = "CacheLookup"
	OpCacheStore   = "CacheStore"
	OpAttention    = "attention M"
	OpFeatLookup   = "FeatLookup"
	OpTransfer     = "DeviceTransfer"
)

// Collector accumulates named durations and counters, and how many
// times each operation was observed. It is safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	durs   map[string]time.Duration
	counts map[string]int64
	calls  map[string]int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		durs:   make(map[string]time.Duration),
		counts: make(map[string]int64),
		calls:  make(map[string]int64),
	}
}

// Time starts a timer for name and returns a stop function that records
// the elapsed duration. Usage: defer c.Time(stats.OpAttention)().
func (c *Collector) Time(name string) func() {
	if c == nil {
		return func() {}
	}
	start := time.Now()
	return func() { c.Add(name, time.Since(start)) }
}

// Add records d against name.
func (c *Collector) Add(name string, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.durs[name] += d
	c.mu.Unlock()
}

// Observe records one call of operation name that took d and handled n
// items: d into its duration, n into its counter, and one into its
// call count.
func (c *Collector) Observe(name string, d time.Duration, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.durs[name] += d
	c.counts[name] += n
	c.calls[name]++
	c.mu.Unlock()
}

// Count adds n to the named counter.
func (c *Collector) Count(name string, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counts[name] += n
	c.mu.Unlock()
}

// Duration returns the accumulated duration for name.
func (c *Collector) Duration(name string) time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.durs[name]
}

// Counter returns the accumulated counter for name.
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[name]
}

// Calls returns how many times operation name was observed.
func (c *Collector) Calls(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[name]
}

// Total returns the sum of all accumulated durations.
func (c *Collector) Total() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var total time.Duration
	for _, d := range c.durs {
		total += d
	}
	return total
}

// Durations returns a copy of all accumulated durations.
func (c *Collector) Durations() map[string]time.Duration {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Duration, len(c.durs))
	for k, v := range c.durs {
		out[k] = v
	}
	return out
}

// String renders the collector as a sorted, aligned table (seconds).
func (c *Collector) String() string {
	if c == nil {
		return "<nil collector>"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.durs))
	for k := range c.durs {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-16s %10.4fs\n", k, c.durs[k].Seconds())
	}
	cnames := make([]string, 0, len(c.counts))
	for k := range c.counts {
		cnames = append(cnames, k)
	}
	sort.Strings(cnames)
	for _, k := range cnames {
		fmt.Fprintf(&b, "%-16s %10d\n", k, c.counts[k])
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
