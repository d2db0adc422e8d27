package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorAccumulates(t *testing.T) {
	c := NewCollector()
	c.Add(OpAttention, time.Second)
	c.Add(OpAttention, 2*time.Second)
	if c.Duration(OpAttention) != 3*time.Second {
		t.Fatalf("Duration = %v", c.Duration(OpAttention))
	}
	c.Count("embeds", 5)
	c.Count("embeds", 7)
	if c.Counter("embeds") != 12 {
		t.Fatalf("Counter = %v", c.Counter("embeds"))
	}
	c.Observe(OpCacheStore, time.Second, 40)
	c.Observe(OpCacheStore, time.Second, 2)
	if c.Duration(OpCacheStore) != 2*time.Second || c.Counter(OpCacheStore) != 42 || c.Calls(OpCacheStore) != 2 {
		t.Fatalf("Observe: duration %v, count %d, calls %d",
			c.Duration(OpCacheStore), c.Counter(OpCacheStore), c.Calls(OpCacheStore))
	}
	if c.Calls(OpAttention) != 0 {
		t.Fatal("Add counted a call")
	}
}

func TestCollectorTimeMeasuresElapsed(t *testing.T) {
	c := NewCollector()
	stop := c.Time("op")
	time.Sleep(5 * time.Millisecond)
	stop()
	if c.Duration("op") < 4*time.Millisecond {
		t.Fatalf("measured %v, want >= ~5ms", c.Duration("op"))
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Time("x")()
	c.Add("x", time.Second)
	c.Count("x", 1)
	c.Observe("x", time.Second, 1)
	c.Reset()
	if c.Duration("x") != 0 || c.Counter("x") != 0 || c.Calls("x") != 0 {
		t.Fatal("nil collector returned nonzero")
	}
	if c.String() != "<nil collector>" {
		t.Fatal("nil String() wrong")
	}
	if c.Durations() != nil {
		t.Fatal("nil Durations() should be nil")
	}
}

func TestCollectorResetAndDurations(t *testing.T) {
	c := NewCollector()
	c.Add("a", time.Second)
	c.Observe("b", time.Second, 3)
	m := c.Durations()
	if m["a"] != time.Second {
		t.Fatal("Durations copy wrong")
	}
	m["a"] = 0 // must not affect the collector
	if c.Duration("a") != time.Second {
		t.Fatal("Durations did not copy")
	}
	c.Reset()
	if c.Duration("a") != 0 || c.Counter("b") != 0 || c.Calls("b") != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestCollectorStringContainsOps(t *testing.T) {
	c := NewCollector()
	c.Add(OpCacheLookup, time.Millisecond)
	c.Count("hits", 3)
	s := c.String()
	if !strings.Contains(s, OpCacheLookup) || !strings.Contains(s, "hits") {
		t.Fatalf("String missing entries: %q", s)
	}
}

func TestCollectorConcurrentUse(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add("op", time.Microsecond)
				c.Count("n", 1)
				c.Observe("obs", time.Microsecond, 2)
			}
		}()
	}
	wg.Wait()
	if c.Counter("n") != 5000 {
		t.Fatalf("concurrent Count lost updates: %d", c.Counter("n"))
	}
	if c.Duration("op") != 5000*time.Microsecond {
		t.Fatalf("concurrent Add lost updates: %v", c.Duration("op"))
	}
	if c.Calls("obs") != 5000 || c.Counter("obs") != 10000 {
		t.Fatalf("concurrent Observe lost updates: %d calls, %d items", c.Calls("obs"), c.Counter("obs"))
	}
}

func TestHitRateAverage(t *testing.T) {
	h := NewHitRate(10)
	h.Record(8, 10)
	h.Record(9, 10)
	if math.Abs(h.Average()-0.85) > 1e-9 {
		t.Fatalf("Average = %v", h.Average())
	}
	if h.Batches() != 2 {
		t.Fatalf("Batches = %d", h.Batches())
	}
}

func TestHitRateWindowed(t *testing.T) {
	h := NewHitRate(2)
	h.Record(10, 10) // 1.0
	h.Record(0, 10)  // 0.0
	h.Record(5, 10)  // 0.5
	w := h.Windowed()
	want := []float64{1.0, 0.5, 0.25}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-9 {
			t.Fatalf("Windowed[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestHitRateZeroLookupBatch(t *testing.T) {
	h := NewHitRate(10)
	h.Record(0, 0)
	if h.Average() != 0 {
		t.Fatal("zero lookups should give 0 average")
	}
	if len(h.Windowed()) != 1 || h.Windowed()[0] != 0 {
		t.Fatal("zero-lookup batch should record a 0 rate")
	}
}

func TestHitRateNilSafe(t *testing.T) {
	var h *HitRate
	h.Record(1, 1)
	if h.Average() != 0 || h.Windowed() != nil || h.Batches() != 0 {
		t.Fatal("nil HitRate misbehaved")
	}
}

func TestHitRateWindowClamp(t *testing.T) {
	h := NewHitRate(0)
	h.Record(1, 2)
	if len(h.Windowed()) != 1 {
		t.Fatal("window<1 not clamped")
	}
}

// Reset clears all timers and counters.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durs = make(map[string]time.Duration)
	c.counts = make(map[string]int64)
	c.calls = make(map[string]int64)
}

// Batches returns the number of batches recorded.
func (h *HitRate) Batches() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.batches)
}
