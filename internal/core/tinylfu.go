package core

// freqSketch is a 4-bit count-min sketch of key access frequencies —
// the admission filter behind the TinyLFU eviction policy. Each key
// maps to four counters (double hashing over a power-of-two table);
// an increment bumps all four saturating at 15, an estimate reads
// their minimum. Every sampleCap increments the whole table halves
// ("aging"), so the sketch tracks recent popularity rather than
// all-time counts: a heavy hitter that goes cold decays away in a few
// sample periods instead of squatting in the cache forever.
//
// Counters are packed two per byte. The table is sized at sixteen
// counters per slot of the shard's limit (8 bytes a slot), whether or
// not the slots are filled: a sample period admits ~10 accesses per
// slot, and each access touches four counters, so anything much
// smaller drowns the signal in collision noise (every counter ends up
// near the mean and admission degenerates to "reject all"). A sketch is
// owned by one cache shard and mutated under that shard's lock; it has
// no locking of its own.
type freqSketch struct {
	table     []byte // 2 four-bit counters per byte
	mask      uint64 // counter-index mask; counter count is a power of two
	samples   int    // increments since the last halving
	sampleCap int    // halve when samples reaches this
	halvings  int64  // aging passes performed (diagnostics)
}

// newFreqSketch sizes a sketch for a shard holding up to capacity
// entries.
func newFreqSketch(capacity int) *freqSketch {
	if capacity < 1 {
		capacity = 1
	}
	counters := 256
	for counters < 16*capacity {
		counters *= 2
	}
	return &freqSketch{
		table: make([]byte, counters/2),
		mask:  uint64(counters - 1),
		// The classic TinyLFU sample period: ~10 accesses per cached
		// slot between halvings.
		sampleCap: 10 * capacity,
	}
}

// spread mixes a key into two independent hash streams for double
// hashing (the same finalizer family as shardFor; g is forced odd so
// successive probes cover the whole table).
func (f *freqSketch) spread(key uint64) (h, g uint64) {
	h = key
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	g = key*0x9E3779B97F4A7C15 + 0x165667B19E3779F9
	g ^= g >> 29
	g |= 1
	return h, g
}

func (f *freqSketch) get(idx uint64) byte {
	b := f.table[idx>>1]
	if idx&1 == 0 {
		return b & 0x0F
	}
	return b >> 4
}

func (f *freqSketch) set(idx uint64, v byte) {
	if idx&1 == 0 {
		f.table[idx>>1] = f.table[idx>>1]&0xF0 | v
	} else {
		f.table[idx>>1] = f.table[idx>>1]&0x0F | v<<4
	}
}

// inc records one access of key, halving the table when the sample
// period elapses.
func (f *freqSketch) inc(key uint64) {
	h, g := f.spread(key)
	for i := uint64(0); i < 4; i++ {
		idx := (h + i*g) & f.mask
		if v := f.get(idx); v < 15 {
			f.set(idx, v+1)
		}
	}
	f.samples++
	if f.samples >= f.sampleCap {
		f.halve()
	}
}

// estimate returns the sketch's frequency estimate for key (an upper
// bound of the true recent count, capped at 15).
func (f *freqSketch) estimate(key uint64) byte {
	h, g := f.spread(key)
	min := byte(15)
	for i := uint64(0); i < 4; i++ {
		if v := f.get((h + i*g) & f.mask); v < min {
			min = v
		}
	}
	return min
}

// halve ages the sketch: every counter is divided by two, so frequency
// mass decays exponentially across sample periods.
func (f *freqSketch) halve() {
	for i, b := range f.table {
		// Shift each packed nibble right by one; 0x77 masks the bit
		// that would leak from the high nibble into the low one.
		f.table[i] = (b >> 1) & 0x77
	}
	f.samples /= 2
	f.halvings++
}
