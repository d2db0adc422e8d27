package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The box this benchmark runs on shares its cores and memory with other
// tenants. The same fixed work ran up to 2.6 times slower minutes apart,
// with no steal time reported, while a dependent integer chain kept its
// speed: what slows is throughput-bound floating-point work and memory
// access, which is what the engine does, and more so when both CPUs
// are busy. Raw timings from such a box gate nothing. So every timing
// is reported at reference host speed: a reference kernel of the
// benchmark's own (never the program's code, so a faster program is
// never normalised away) runs between operations — a small matrix
// product alone, the same beside a copy of itself on the other CPU, and
// a run of dependent-free random reads over a table no cache holds —
// and each stretch of work is divided by how much slower than on a
// quiet box the kernel ran right before and after it. Ten runs on ten
// seeds whose raw throughput spread over 27–37 % of its median spread
// over 5–8 % once normalised (README, "Host speed").

// The kernel's three parts, their times in microseconds on the
// reference box when nothing else contends — the units every normalised
// timing is in — and their weights in the slowdown, fitted over eight
// runs of each workload under interference (README).
const (
	refSoloMicros, refSoloWeight     = 520.0, 0.3
	refPairMicros, refPairWeight     = 520.0, 0.4
	refGatherMicros, refGatherWeight = 60.0, 0.3

	refTableWords = 4 << 20 // 32 MiB of uint64: no cache level holds it
	refGatherN    = 4000
)

type refMats struct{ a, b, c [128 * 128]float32 }

func newRefMats() *refMats {
	m := new(refMats)
	for i := range m.a {
		m.a[i] = float32(i%7) * 0.1
		m.b[i] = float32(i%5) * 0.1
	}
	return m
}

// refMatMul is 48 rows of a scalar 128×128 matrix product: the shape of
// work the attention layers do, on operands that stay in cache.
func refMatMul(m *refMats) {
	const n = 128
	for i := 0; i < 48; i++ {
		for k := 0; k < n; k++ {
			aik := m.a[i*n+k]
			for j := 0; j < n; j++ {
				m.c[i*n+j] += aik * m.b[k*n+j]
			}
		}
	}
	if m.c[0] > 1e30 {
		clear(m.c[:])
	}
}

// refGather sums refGatherN words of table at xorshift-chosen indexes:
// the reads do not depend on each other, as the engine's cache lookups
// and feature gathers do not.
func refGather(table []uint64, x uint64) (sum, next uint64) {
	for i := 0; i < refGatherN; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += table[x&(refTableWords-1)]
	}
	return sum, x
}

// hostRef samples host speed with the reference kernel. A helper
// goroutine, parked between probes, is the copy that keeps the other
// CPU busy during the second part of a probe.
type hostRef struct {
	samples []float64 // slowdown against a quiet reference box, per probe
	spent   time.Duration

	main, side *refMats
	table      []uint64
	x, sink    uint64 // the gather's position and its sum, kept so the reads are not optimised away
	start      chan struct{}
	running    atomic.Bool
	stop       atomic.Bool
	idle       chan struct{}
}

func newHostRef() *hostRef {
	h := &hostRef{
		main: newRefMats(), side: newRefMats(),
		table: make([]uint64, refTableWords), x: 88172645463325252,
		start: make(chan struct{}), idle: make(chan struct{}),
	}
	for i := range h.table {
		h.table[i] = uint64(i)
	}
	go func() {
		for range h.start {
			h.running.Store(true)
			for !h.stop.Load() {
				refMatMul(h.side)
			}
			h.running.Store(false)
			h.idle <- struct{}{}
		}
	}()
	return h
}

// close ends the helper goroutine.
func (h *hostRef) close() { close(h.start) }

// probe runs the kernel's three parts and returns the weighted mean of
// their slowdowns.
func (h *hostRef) probe() float64 {
	t0 := time.Now()
	refMatMul(h.main)
	solo := time.Since(t0)

	h.stop.Store(false)
	h.start <- struct{}{}
	for !h.running.Load() {
		runtime.Gosched()
	}
	t1 := time.Now()
	refMatMul(h.main)
	pair := time.Since(t1)
	h.stop.Store(true)
	<-h.idle

	t2 := time.Now()
	h.sink, h.x = refGather(h.table, h.x)
	gather := time.Since(t2)

	h.spent += time.Since(t0)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	s := refSoloWeight*us(solo)/refSoloMicros + refPairWeight*us(pair)/refPairMicros + refGatherWeight*us(gather)/refGatherMicros
	h.samples = append(h.samples, s)
	return s
}

// mark names the present, for factorSince and spentSince.
type refMark struct {
	n     int
	spent time.Duration
}

func (h *hostRef) mark() refMark { return refMark{len(h.samples), h.spent} }

// factorSince is how many times slower than the reference the host ran
// over the probes taken since m: 1 on a quiet reference box.
func (h *hostRef) factorSince(m refMark) float64 {
	if len(h.samples) == m.n {
		return 1
	}
	return mean(h.samples[m.n:])
}

// spentSince is the time the probes since m took, to be left out of
// whatever was timed around them.
func (h *hostRef) spentSince(m refMark) time.Duration { return h.spent - m.spent }

// slowdown is the factor for work done between two neighbouring probes.
func slowdown(before, after float64) float64 { return (before + after) / 2 }

// timeSetup times one set-up at reference host speed — the probes it
// took left out, the rest divided by the slowdown they saw — and appends
// the seconds to setups.
func timeSetup(h *hostRef, setups *[]float64, setup func() error) error {
	m := h.mark()
	t0 := time.Now()
	if err := setup(); err != nil {
		return err
	}
	wall := time.Since(t0) - h.spentSince(m)
	*setups = append(*setups, wall.Seconds()/h.factorSince(m))
	return nil
}

// hostCalib times a fixed pure-Go loop — xorshift arithmetic, then a
// sweep of the host-speed kernel's 32 MiB table — and returns
// milliseconds. It runs before set-up and after measurement, so a slow
// host is told apart from a slow program by a number that involves
// neither the program nor the normalisation.
func (h *hostRef) hostCalib() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc float64
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x&1023) * 1.0000001
	}
	if acc == 0 {
		x++
	}
	for i := range h.table {
		h.table[i] += x
	}
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
