// Package device prices a run on a simulated V100-class accelerator for
// the paper's GPU experiments (Figure 5 right, Figure 6 bottom, Tables
// 3 GPU, 4 and 5). No GPU exists here (DESIGN.md §2), so the engine
// runs on the host and counts its work per operation, and Price turns
// the counts into device time: flops and kernel launches, host probes
// and row copies, and HtoD/DtoH/DtoD transfers. Price reads no clock,
// so a run prices the same on every machine and every repeat.
package device

import (
	"math"
	"time"

	"tgopt/internal/stats"
)

// Direction labels a memory transfer.
type Direction int

const (
	HtoD Direction = iota // host to device
	DtoH                  // device to host
	DtoD                  // within device
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case HtoD:
		return "HtoD"
	case DtoH:
		return "DtoH"
	case DtoD:
		return "DtoD"
	default:
		return "unknown"
	}
}

// CostModel holds the simulated machine's per-unit costs.
type CostModel struct {
	// FlopsPerSec is the device's dense-math throughput.
	FlopsPerSec float64
	// LaunchOverhead is charged once per kernel launch.
	LaunchOverhead time.Duration
	// PCIeBytesPerSec is the HtoD/DtoH bandwidth.
	PCIeBytesPerSec float64
	// DtoDBytesPerSec is the on-device copy bandwidth.
	DtoDBytesPerSec float64
	// TransferLatency is charged once per transfer call: many small
	// copies drown in it (Table 5's device-resident cache).
	TransferLatency time.Duration
	// HostProbe is one host hash or binary-search probe (a cache miss).
	HostProbe time.Duration
	// HostBytesPerSec is the host's bandwidth for copying gathered rows.
	HostBytesPerSec float64
}

// DefaultCostModel returns the per-unit costs of the paper's p3.2xlarge
// (one V100 on PCIe 3.0 beside a 2.3 GHz Xeon), fixed from published
// figures before any run was priced; DESIGN.md §2 has the derivation.
func DefaultCostModel() CostModel {
	return CostModel{
		FlopsPerSec:     7.85e12,
		LaunchOverhead:  10 * time.Microsecond,
		PCIeBytesPerSec: 12e9,
		DtoDBytesPerSec: 300e9,
		TransferLatency: 4 * time.Microsecond,
		HostProbe:       100 * time.Nanosecond,
		HostBytesPerSec: 5e9,
	}
}

// Shape is what pricing needs of the model: row widths, neighbors per
// target, and the time table's window (0: encodings are computed).
type Shape struct {
	NodeDim, EdgeDim, TimeDim int
	K                         int
	TimeWindow                int
}

// Placement is where the memoization cache keeps its rows (Table 5).
type Placement int

const (
	CacheOnHost Placement = iota
	CacheOnDevice
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == CacheOnDevice {
		return "GPU"
	}
	return "CPU"
}

// Transfer is an accumulated per-direction transfer account.
type Transfer struct {
	Calls int64
	Bytes int64
	Time  time.Duration
}

// Priced is the simulated cost of one run.
type Priced struct {
	// Ops is each operation's simulated time, its transfers included.
	Ops map[stats.Op]time.Duration
	// Transfers are the per-direction accounts, indexed by Direction.
	Transfers [3]Transfer
	// Total is the simulated runtime: the sum of Ops.
	Total time.Duration
}

// Pct returns direction d's share of the total simulated runtime.
func (p Priced) Pct(d Direction) float64 {
	if p.Total <= 0 {
		return 0
	}
	return 100 * float64(p.Transfers[d].Time) / float64(p.Total)
}

// What a PyTorch TGAT layer launches and what the engine copies.
const (
	attentionLaunches  = 8             // q assembly, WQ, WK/WV, scores, softmax, sum, WO, FFN
	timeEncodeLaunches = 2             // affine map, cosine
	timeEncodeFlops    = 3             // per element: multiply, add, cosine
	sampleSlotBytes    = 4 + 4 + 8 + 1 // neighbor, edge id, time, valid flag
	keyBytes           = 4 + 8 + 8     // ComputeKeys reads a node and a time, writes a key
)

// attentionFlops returns the dense-math cost of one target row through
// one TGAT layer: WQ and WO on the query width q = d+dt, WK and WV on
// each of k neighbors' key width d+de+dt, the k scores and the weighted
// sum, and the merge FFN (q+d → d → d). A multiply-add is two flops.
func (s Shape) attentionFlops() int64 {
	d, de, dt, k := int64(s.NodeDim), int64(s.EdgeDim), int64(s.TimeDim), int64(s.K)
	q, kv := d+dt, d+de+dt
	return 2 * (2*q*q + 2*k*kv*q + 2*k*q + (q+d)*d + d*d)
}

// Price turns the work an engine counted into simulated time and
// transfer accounts, with the cache kept at p: c is the engine's
// per-operation table (core.Engine.Ops), of which only the items and
// calls are read, and hits is its memo caches' hit count
// (core.Engine.LayerCacheStats). No measured duration plays a part.
func Price(m CostModel, s Shape, p Placement, c *stats.Collector, hits int64) Priced {
	b := bill{m: m, out: Priced{Ops: map[stats.Op]time.Duration{}}}
	d, de, dt, k := int64(s.NodeDim), int64(s.EdgeDim), int64(s.TimeDim), int64(s.K)

	// Sampling binary-searches (two probes) per target and writes k slots.
	targets := c.Items(stats.OpNghLookup)
	b.host(stats.OpNghLookup, 2*targets, targets*k*sampleSlotBytes)
	b.host(stats.OpDedupFilter, c.Items(stats.OpDedupFilter), 0)
	b.host(stats.OpDedupInvert, 0, c.Items(stats.OpDedupInvert)*d*4)
	b.host(stats.OpComputeKeys, 0, c.Items(stats.OpComputeKeys)*keyBytes)

	// The cache's index is a host hash table wherever its rows live. On
	// the host, rows are copied there, the looked-up batch ships once per
	// lookup and stored rows come back once per store; on the device,
	// every hit and every stored row is its own on-device copy.
	lookups, stored := c.Items(stats.OpCacheLookup), c.Items(stats.OpCacheStore)
	if p == CacheOnHost {
		b.host(stats.OpCacheLookup, lookups, hits*d*4)
		b.move(stats.OpCacheLookup, HtoD, lookups*d*4, c.Calls(stats.OpCacheLookup))
		b.host(stats.OpCacheStore, 2*stored, stored*d*4)
		b.move(stats.OpCacheStore, DtoH, stored*d*4, c.Calls(stats.OpCacheStore))
	} else {
		b.host(stats.OpCacheLookup, lookups, 0)
		b.move(stats.OpCacheLookup, DtoD, hits*d*4, hits)
		b.host(stats.OpCacheStore, 2*stored, 0)
		b.move(stats.OpCacheStore, DtoD, stored*d*4, stored)
	}

	// Feature rows are gathered on the host and shipped: node rows at
	// layer 0, and k edge rows per attention row.
	rows := c.Items(stats.OpAttention)
	featBytes := (c.Items(stats.OpFeatLookup)-rows*k)*d*4 + rows*k*de*4
	b.host(stats.OpFeatLookup, 0, featBytes)
	b.move(stats.OpFeatLookup, HtoD, featBytes, c.Calls(stats.OpFeatLookup))
	b.kernel(stats.OpAttention, rows*s.attentionFlops(), c.Calls(stats.OpAttention)*attentionLaunches)

	zeros, zeroCalls := c.Items(stats.OpTimeEncZero), c.Calls(stats.OpTimeEncZero)
	deltas, deltaCalls := c.Items(stats.OpTimeEncDelta), c.Calls(stats.OpTimeEncDelta)
	if s.TimeWindow > 0 {
		// The table ships once; Φ(0) is a resident row broadcast on the
		// device; Δt rows are gathered on the host and shipped, the
		// overhead behind the paper's GPU regression for §4.3.
		b.move(stats.OpTransfer, HtoD, int64(s.TimeWindow)*dt*4, 1)
		b.move(stats.OpTimeEncZero, DtoD, zeros*dt*4, zeroCalls)
		b.host(stats.OpTimeEncDelta, 0, deltas*dt*4)
		b.move(stats.OpTimeEncDelta, HtoD, deltas*dt*4, deltaCalls)
	} else {
		// The zero deltas ship with their output buffer, the Δt inputs
		// alone; both are encoded on the device.
		b.move(stats.OpTimeEncZero, HtoD, zeros*(8+dt*4), 2*zeroCalls)
		b.kernel(stats.OpTimeEncZero, zeros*dt*timeEncodeFlops, zeroCalls*timeEncodeLaunches)
		b.move(stats.OpTimeEncDelta, HtoD, deltas*8, deltaCalls)
		b.kernel(stats.OpTimeEncDelta, deltas*dt*timeEncodeFlops, deltaCalls*timeEncodeLaunches)
	}
	return b.out
}

// bill accumulates Price's charges.
type bill struct {
	m   CostModel
	out Priced
}

func (b *bill) charge(op stats.Op, t time.Duration) {
	if t <= 0 {
		return
	}
	b.out.Ops[op] += t
	b.out.Total += t
}

func (b *bill) host(op stats.Op, probes, bytes int64) {
	b.charge(op, time.Duration(probes)*b.m.HostProbe+seconds(float64(bytes)/b.m.HostBytesPerSec))
}

func (b *bill) kernel(op stats.Op, flops, launches int64) {
	b.charge(op, seconds(float64(flops)/b.m.FlopsPerSec)+time.Duration(launches)*b.m.LaunchOverhead)
}

func (b *bill) move(op stats.Op, dir Direction, bytes, calls int64) {
	if bytes == 0 {
		return
	}
	bw := b.m.PCIeBytesPerSec
	if dir == DtoD {
		bw = b.m.DtoDBytesPerSec
	}
	t := seconds(float64(bytes)/bw) + time.Duration(calls)*b.m.TransferLatency
	x := &b.out.Transfers[dir]
	x.Calls += calls
	x.Bytes += bytes
	x.Time += t
	b.charge(op, t)
}

func seconds(s float64) time.Duration { return time.Duration(math.Round(s * float64(time.Second))) }
