package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tgopt/internal/tensor"
)

// TestCacheSnapshotWritesEachEntryOnce: a key removed and stored again
// is one entry, the newest. WriteTo writes it once, and a reload keeps
// the age order, so the next eviction takes the oldest key, not the
// restored one.
func TestCacheSnapshotWritesEachEntryOnce(t *testing.T) {
	c := NewCache(2, 1, 1)
	c.Store([]uint64{1, 2}, tensor.FromSlice([]float32{10, 20}, 2, 1))
	c.Remove([]uint64{1})
	c.Store([]uint64{1}, tensor.FromSlice([]float32{11}, 1, 1))

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// magic, dim, one section count, its records (key, tag, one float),
	// the end marker.
	if n := binary.LittleEndian.Uint32(blob[8:]); n != 2 || len(blob) != 12+2*20+4 {
		t.Fatalf("WriteTo wrote %d records in %d bytes for 2 entries", n, len(blob))
	}

	r := NewCache(2, 1, 1)
	if _, err := r.ReadFrom(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	r.Store([]uint64{3}, tensor.FromSlice([]float32{30}, 1, 1))
	if !r.Contains(1) || r.Contains(2) || !r.Contains(3) {
		t.Fatalf("after one more store, resident 1/2/3 = %v/%v/%v, want true/false/true",
			r.Contains(1), r.Contains(2), r.Contains(3))
	}
	hits, _ := r.Lookup([]uint64{1}, tensor.New(1, 1))
	if dst := tensor.New(1, 1); r.LookupInto([]uint64{1}, dst, hits) != 1 || dst.At(0, 0) != 11 {
		t.Fatalf("key 1 holds %v, want the restored row 11", dst.At(0, 0))
	}
}

// refCache is a naive model of Cache: per shard, the keys in age order
// and a key → row map, with its own TinyLFU sketch fed the same lookups
// once the store that brings the shard to half its limit builds it.
type refCache struct {
	c      *Cache // the cache modeled, for its shard choice and limits
	order  [][]uint64
	rows   []map[uint64][]float32
	sketch []*freqSketch
	st     CacheStats
}

func newRefCache(c *Cache) *refCache {
	r := &refCache{c: c}
	r.reset()
	return r
}

// reset empties the model like Clear; counters are the caller's.
func (r *refCache) reset() {
	n := len(r.c.shards)
	r.order, r.rows, r.sketch = make([][]uint64, n), make([]map[uint64][]float32, n), make([]*freqSketch, n)
	for i := range r.rows {
		r.rows[i] = map[uint64][]float32{}
	}
}

// arm builds shard i's sketch if it is a TinyLFU shard at half its limit
// or above that has none yet.
func (r *refCache) arm(i int) {
	if limit := r.c.shards[i].limit; r.sketch[i] == nil && r.c.policy == CacheTinyLFU && 2*len(r.rows[i]) >= limit {
		r.sketch[i] = newFreqSketch(limit)
	}
}

func (r *refCache) shard(key uint64) int {
	s := r.c.shardFor(key)
	for i := range r.c.shards {
		if s == &r.c.shards[i] {
			return i
		}
	}
	panic("unreachable")
}

func (r *refCache) lookup(key uint64) ([]float32, bool) {
	i := r.shard(key)
	if r.sketch[i] != nil {
		r.sketch[i].inc(key)
	}
	v, ok := r.rows[i][key]
	if ok {
		r.st.Hits++
	} else {
		r.st.Misses++
	}
	r.st.Lookups++
	return v, ok
}

func (r *refCache) store(key uint64, row []float32) {
	i := r.shard(key)
	if _, ok := r.rows[i][key]; ok {
		r.rows[i][key] = slices.Clone(row)
		return
	}
	if len(r.rows[i]) >= r.c.shards[i].limit {
		victim := r.order[i][0]
		if sk := r.sketch[i]; sk != nil && sk.estimate(key) <= sk.estimate(victim) {
			r.st.AdmitRejected++
			return
		}
		r.order[i] = r.order[i][1:]
		delete(r.rows[i], victim)
	}
	r.order[i] = append(r.order[i], key)
	r.rows[i][key] = slices.Clone(row)
	r.arm(i)
}

func (r *refCache) remove(key uint64) bool {
	i := r.shard(key)
	if _, ok := r.rows[i][key]; !ok {
		return false
	}
	delete(r.rows[i], key)
	r.order[i] = slices.DeleteFunc(r.order[i], func(k uint64) bool { return k == key })
	return true
}

// check compares everything observable, and each shard's age list,
// with the model.
func (r *refCache) check(t *testing.T, step int) {
	t.Helper()
	if st := r.c.Stats(); st != r.st {
		t.Fatalf("step %d: Stats %+v, model %+v", step, st, r.st)
	}
	var want []uint64
	for i := range r.order {
		want = append(want, r.order[i]...)
		s := &r.c.shards[i]
		var got []uint64
		for p := s.head; p >= 0; p = s.slots[p].next {
			got = append(got, s.slots[p].key)
		}
		if !slices.Equal(got, r.order[i]) {
			t.Fatalf("step %d: shard %d age order %v, model %v", step, i, got, r.order[i])
		}
	}
	if r.c.Len() != len(want) {
		t.Fatalf("step %d: Len %d, model %d", step, r.c.Len(), len(want))
	}
	got := r.c.Keys()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: Keys %v, model %v", step, got, want)
	}
	r.c.checkBounded(t)
}

// TestCacheMatchesReferenceModel drives random Store, LookupInto,
// Remove, Clear and WriteTo→ReadFrom sequences through the slab and a
// naive model, checking every hit mask, row, Len, Stats and Keys.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const dim, keyspace, steps = 3, 48, 4000
	for _, shards := range []int{1, 4} {
		for _, policy := range []CachePolicy{CacheFIFO, CacheTinyLFU} {
			t.Run(fmt.Sprintf("shards=%d/policy=%d", shards, policy), func(t *testing.T) {
				cfg := CacheConfig{Limit: 13, Dim: dim, Shards: shards, Policy: policy}
				ref := newRefCache(NewCacheWith(cfg))
				rng := rand.New(rand.NewSource(int64(7*shards) + int64(policy)))
				batch := func() []uint64 {
					keys := make([]uint64, 1+rng.Intn(6))
					for i := range keys {
						keys[i] = uint64(1 + rng.Intn(keyspace))
					}
					return keys
				}
				for step := 0; step < steps; step++ {
					c := ref.c
					switch op := rng.Intn(100); {
					case op < 45:
						keys := batch()
						dst := tensor.New(len(keys), dim)
						hits := make([]bool, len(keys))
						for i := range hits {
							hits[i] = rng.Intn(2) == 0 // dirty scratch
						}
						n := c.LookupInto(keys, dst, hits)
						nw := 0
						for i, key := range keys {
							row, ok := ref.lookup(key)
							if hits[i] != ok {
								t.Fatalf("step %d: key %d hit %v, model %v", step, key, hits[i], ok)
							}
							if ok {
								nw++
								if !slices.Equal(dst.Data()[i*dim:(i+1)*dim], row) {
									t.Fatalf("step %d: key %d row %v, model %v", step, key, dst.Data()[i*dim:(i+1)*dim], row)
								}
							}
						}
						if n != nw {
							t.Fatalf("step %d: %d hits, model %d", step, n, nw)
						}
					case op < 85:
						keys := batch()
						h := tensor.New(len(keys), dim)
						for i := range h.Data() {
							h.Data()[i] = float32(step*100 + i)
						}
						c.Store(keys, h)
						for i, key := range keys {
							ref.store(key, h.Data()[i*dim:(i+1)*dim])
						}
					case op < 96:
						keys := batch()
						want := 0
						for _, key := range keys {
							if ref.remove(key) {
								want++
							}
						}
						if got := c.Remove(keys); got != want {
							t.Fatalf("step %d: Remove %v removed %d, model %d", step, keys, got, want)
						}
					case op < 98:
						c.Clear()
						ref.reset()
					default:
						var buf bytes.Buffer
						if _, err := c.WriteTo(&buf); err != nil {
							t.Fatal(err)
						}
						reload := NewCacheWith(cfg)
						if _, err := reload.ReadFrom(&buf); err != nil {
							t.Fatal(err)
						}
						// A fresh cache: fresh counters, the same entries
						// in the same age order, and a fresh sketch in
						// every shard the load brought to half its limit.
						order, rows := ref.order, ref.rows
						ref.c = reload
						ref.reset()
						ref.order, ref.rows, ref.st = order, rows, CacheStats{}
						for i := range rows {
							ref.arm(i)
						}
					}
					ref.check(t, step)
				}
			})
		}
	}
}

// TestCacheEvictingStoreAllocs pins the slab's point: once a shard is
// full, a store that evicts copies into the victim's slot and allocates
// nothing — under FIFO, and under TinyLFU for keys looked up first, so
// they are admitted over victims never looked up.
func TestCacheEvictingStoreAllocs(t *testing.T) {
	const dim, limit, batch = 8, 2048, 64
	for _, policy := range []CachePolicy{CacheFIFO, CacheTinyLFU} {
		c := NewCacheWith(CacheConfig{Limit: limit, Dim: dim, Shards: 1, Policy: policy})
		keys := make([]uint64, batch)
		h := tensor.New(batch, dim)
		dst := tensor.New(batch, dim)
		hits := make([]bool, batch)
		next := uint64(1)
		// store looks the next batch of keys up `lookups` times, then
		// stores it.
		store := func(lookups int) {
			for i := range keys {
				keys[i] = next
				next++
			}
			for i := 0; i < lookups; i++ {
				c.LookupInto(keys, dst, hits)
			}
			c.Store(keys, h)
		}
		// Fill, then churn the key map by removing the oldest batch
		// before each store, so no warm-up store evicts.
		for c.Len() < limit {
			store(0)
		}
		for i := 0; i < 200; i++ {
			oldest := make([]uint64, batch)
			for j := range oldest {
				oldest[j] = next - limit + uint64(j)
			}
			if c.Remove(oldest) != batch {
				t.Fatal("warm-up: the oldest batch was not resident")
			}
			store(0)
		}
		// 21 measured batches evict only warm-up keys.
		before := c.Stats().AdmitRejected
		if allocs := testing.AllocsPerRun(20, func() { store(3) }); allocs != 0 {
			t.Errorf("policy %d: an evicting %d-row store allocated %v times", policy, batch, allocs)
		}
		if c.Len() != limit || c.Stats().AdmitRejected != before {
			t.Errorf("policy %d: measured stores did not all evict (Len %d, %d rejected)", policy, c.Len(), c.Stats().AdmitRejected-before)
		}
		c.checkBounded(t)
	}
}
