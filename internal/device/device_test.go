package device

import (
	"reflect"
	"testing"
	"time"

	"tgopt/internal/stats"
)

// unitModel has round per-unit costs so expected prices are exact.
func unitModel() CostModel {
	return CostModel{
		FlopsPerSec:     1e9,
		LaunchOverhead:  time.Millisecond,
		PCIeBytesPerSec: 1e9,
		DtoDBytesPerSec: 10e9,
		TransferLatency: time.Microsecond,
		HostProbe:       time.Microsecond,
		HostBytesPerSec: 1e9,
	}
}

// TestOpTimeTensorSpeedup checks a tensor op's time on the device: its
// flops at the device's rate plus one launch overhead per kernel.
func TestOpTimeTensorSpeedup(t *testing.T) {
	s := Shape{NodeDim: 2, EdgeDim: 1, TimeDim: 2, K: 3}
	// q = 4, kv = 5: WQ+WO 2·16, WK+WV 2·3·5·4, scores+sum 2·3·4,
	// FFN (4+2)·2 + 2·2, two flops per multiply-add.
	if got, want := s.attentionFlops(), int64(2*(32+120+24+12+4)); got != want {
		t.Fatalf("attentionFlops = %d, want %d", got, want)
	}
	c := stats.NewCollector()
	c.Observe(stats.OpAttention, time.Hour, 1000)
	c.Observe(stats.OpAttention, time.Hour, 1000)
	p := Price(unitModel(), s, CacheOnHost, c, 0)
	want := time.Duration(2000*s.attentionFlops())*time.Nanosecond + 2*attentionLaunches*time.Millisecond
	if got := p.Ops[stats.OpAttention]; got != want {
		t.Fatalf("attention priced %v, want %v", got, want)
	}
}

func TestPriceHostOpsPerItem(t *testing.T) {
	s := Shape{NodeDim: 4, EdgeDim: 4, TimeDim: 4, K: 2}
	c := stats.NewCollector()
	c.Observe(stats.OpNghLookup, 0, 10)
	c.Observe(stats.OpDedupFilter, 0, 7)
	p := Price(unitModel(), s, CacheOnHost, c, 0)
	// Two probes per target and k slots written per target.
	if got, want := p.Ops[stats.OpNghLookup], 20*time.Microsecond+time.Duration(10*2*sampleSlotBytes)*time.Nanosecond; got != want {
		t.Fatalf("NghLookup priced %v, want %v", got, want)
	}
	if got := p.Ops[stats.OpDedupFilter]; got != 7*time.Microsecond {
		t.Fatalf("DedupFilter priced %v, want 7µs", got)
	}
	if p.Total != p.Ops[stats.OpNghLookup]+p.Ops[stats.OpDedupFilter] {
		t.Fatalf("Total %v is not the sum of %v", p.Total, p.Ops)
	}
	if p.Transfers != ([3]Transfer{}) {
		t.Fatalf("host-only ops moved data: %+v", p.Transfers)
	}
}

func TestTransferTimeBandwidthAndLatency(t *testing.T) {
	s := Shape{NodeDim: 250, EdgeDim: 1, TimeDim: 1, K: 1}
	c := stats.NewCollector()
	c.Observe(stats.OpCacheStore, 0, 1000) // 1000 rows of 1000 bytes, one call
	host := Price(unitModel(), s, CacheOnHost, c, 0)
	x := host.Transfers[DtoH]
	want := time.Millisecond + time.Microsecond
	if x.Bytes != 1e6 || x.Calls != 1 || x.Time != want {
		t.Fatalf("DtoH account %+v, want 1e6 bytes, 1 call, %v", x, want)
	}
	dev := Price(unitModel(), s, CacheOnDevice, c, 0)
	dd := dev.Transfers[DtoD]
	wantDD := 100*time.Microsecond + 1000*time.Microsecond
	if dd.Bytes != 1e6 || dd.Calls != 1000 || dd.Time != wantDD {
		t.Fatalf("DtoD account %+v, want 1e6 bytes, 1000 calls, %v", dd, wantDD)
	}
	if dev.Transfers[DtoH].Bytes != 0 || host.Transfers[DtoD].Bytes != 0 {
		t.Fatal("a placement moved rows in the other placement's direction")
	}
}

func TestManySmallCopiesDominatedByLatency(t *testing.T) {
	// The Table 5 pathology: a device-resident cache stores each row
	// with its own copy, so the same bytes cost far more than the one
	// copy per store a host-resident cache ships.
	s := Shape{NodeDim: 64, EdgeDim: 64, TimeDim: 64, K: 10}
	c := stats.NewCollector()
	c.Observe(stats.OpCacheStore, 0, 4096)
	one := Price(DefaultCostModel(), s, CacheOnHost, c, 0).Transfers[DtoH].Time
	many := Price(DefaultCostModel(), s, CacheOnDevice, c, 0).Transfers[DtoD].Time
	if many < 100*one {
		t.Fatalf("4096 small copies (%v) not ≫ one large copy (%v)", many, one)
	}
}

func TestTimeTableShipsOnceAndReplacesKernels(t *testing.T) {
	s := Shape{NodeDim: 4, EdgeDim: 4, TimeDim: 4, K: 2}
	c := stats.NewCollector()
	c.Observe(stats.OpTimeEncDelta, 0, 100)
	computed := Price(unitModel(), s, CacheOnHost, c, 0)
	if computed.Ops[stats.OpTransfer] != 0 {
		t.Fatal("a run without the table shipped one")
	}
	want := timeEncodeLaunches*time.Millisecond + 1200*time.Nanosecond + // kernels
		800*time.Nanosecond + time.Microsecond // Δt inputs shipped
	if got := computed.Ops[stats.OpTimeEncDelta]; got != want {
		t.Fatalf("computed TimeEncode(dt) priced %v, want %v", got, want)
	}
	s.TimeWindow = 10
	table := Price(unitModel(), s, CacheOnHost, c, 0)
	if got := table.Transfers[HtoD]; got.Calls != 2 || got.Bytes != 10*16+100*16 {
		t.Fatalf("table run HtoD %+v, want the table once and the gathered rows once", got)
	}
	if table.Ops[stats.OpTransfer] != 160*time.Nanosecond+time.Microsecond {
		t.Fatalf("table upload priced %v", table.Ops[stats.OpTransfer])
	}
}

func TestEmptyRunPricesFree(t *testing.T) {
	s := Shape{NodeDim: 8, EdgeDim: 8, TimeDim: 8, K: 4}
	for _, c := range []*stats.Collector{nil, stats.NewCollector()} {
		for _, p := range []Placement{CacheOnHost, CacheOnDevice} {
			got := Price(DefaultCostModel(), s, p, c, 0)
			if got.Total != 0 || len(got.Ops) != 0 || got.Transfers != ([3]Transfer{}) || got.Pct(HtoD) != 0 {
				t.Fatalf("empty run priced %+v", got)
			}
		}
	}
}

func TestPriceIgnoresMeasuredTime(t *testing.T) {
	s := Shape{NodeDim: 8, EdgeDim: 8, TimeDim: 8, K: 4, TimeWindow: 100}
	record := func(wall time.Duration) *stats.Collector {
		c := stats.NewCollector()
		for _, op := range []stats.Op{stats.OpNghLookup, stats.OpAttention, stats.OpFeatLookup,
			stats.OpCacheLookup, stats.OpCacheStore, stats.OpTimeEncZero, stats.OpTimeEncDelta} {
			c.Observe(op, wall, 50)
		}
		return c
	}
	fast, slow := record(time.Nanosecond), record(time.Hour)
	for _, p := range []Placement{CacheOnHost, CacheOnDevice} {
		a, b := Price(DefaultCostModel(), s, p, fast, 20), Price(DefaultCostModel(), s, p, slow, 20)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s placement: the same counts priced differently:\n%+v\n%+v", p, a, b)
		}
		if a.Total <= 0 {
			t.Fatal("nothing priced")
		}
	}
}

func TestDirectionString(t *testing.T) {
	if HtoD.String() != "HtoD" || DtoH.String() != "DtoH" || DtoD.String() != "DtoD" || Direction(9).String() != "unknown" {
		t.Fatal("Direction strings wrong")
	}
	if CacheOnHost.String() != "CPU" || CacheOnDevice.String() != "GPU" {
		t.Fatal("Placement strings wrong")
	}
}

func TestDefaultCostModelShape(t *testing.T) {
	m := DefaultCostModel()
	if m.FlopsPerSec <= 0 || m.HostBytesPerSec <= 0 || m.HostProbe <= 0 {
		t.Fatal("unpriced work")
	}
	if m.LaunchOverhead <= m.TransferLatency {
		t.Fatal("a kernel launch should cost more than a copy call")
	}
	if m.DtoDBytesPerSec <= m.PCIeBytesPerSec {
		t.Fatal("on-device bandwidth should exceed PCIe")
	}
}
