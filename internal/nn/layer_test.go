package nn

import (
	"math"
	"sync/atomic"
	"testing"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// layerFixture is a pool of targets for the layer tests: per target one
// hTgt/tEnc0 row and k hNgh/eFeat/tEncD rows, with edgeMask's all-
// padded, one-slot and dense targets first. Rows under padded slots hold
// NaN: the pass must never let one reach an output. The *At tables hold
// the same hTgt, hNgh and eFeat rows where the indexed form reads them
// (scatterRows). deltas holds a Δt per slot for the encoding form —
// integral and fractional, NaN under padded slots — and time the
// encoder that turns them into the time segment.
type layerFixture struct {
	k, d, de, dt                    int
	attn                            *TemporalAttention
	merge                           *MergeLayer
	hTgt, hNgh, eFeat, tEnc0, tEncD *tensor.Tensor
	mask                            []bool

	hTgtAt, hNghAt, eFeatAt *tensor.Tensor

	deltas []float64
	time   *TimeEncoder
}

// layerShape is the fixture's widths: 8/6/4 leaves every kernel a scalar
// tail, 32/32/32 is the benchmark's node, edge and time widths, whole
// vector blocks.
type layerShape struct{ heads, d, de, dt, k int }

var (
	shape864    = layerShape{2, 8, 6, 4, 5}
	shape323232 = layerShape{2, 32, 32, 32, 5}
)

func newLayerFixture(pool int) *layerFixture { return newLayerFixtureShape(pool, shape864) }

func newLayerFixtureShape(pool int, sh layerShape) *layerFixture {
	heads, d, de, dt, k := sh.heads, sh.d, sh.de, sh.dt, sh.k
	r := tensor.NewRNG(97)
	f := &layerFixture{k: k, d: d, de: de, dt: dt}
	f.attn = NewTemporalAttention(r, heads, d+dt, d+de+dt)
	f.merge = NewMergeLayer(r, d+dt, d, 10, d)
	for _, l := range []*Linear{f.attn.WQ, f.attn.WK, f.attn.WV, f.attn.WO, f.merge.FC1, f.merge.FC2} {
		copy(l.B.Data(), tensor.Randn(r, l.Out()).Data())
	}
	f.hTgt = tensor.Randn(r, pool, d)
	f.tEnc0 = tensor.Randn(r, pool, dt)
	f.hNgh = tensor.Randn(r, pool*k, d)
	f.eFeat = tensor.Randn(r, pool*k, de)
	f.tEncD = tensor.Randn(r, pool*k, dt)
	f.mask = edgeMask(r, pool, k)
	for s, ok := range f.mask {
		if !ok {
			for _, t := range []*tensor.Tensor{f.hNgh, f.eFeat, f.tEncD} {
				fillNaN(t.Row(s))
			}
		}
	}
	f.hTgtAt, f.hNghAt, f.eFeatAt = scatterRows(f.hTgt), scatterRows(f.hNgh), scatterRows(f.eFeat)
	f.time = NewTimeEncoder(dt)
	copy(f.time.Phi.Data(), tensor.Randn(r, dt).Data())
	f.deltas = make([]float64, pool*k)
	for s, ok := range f.mask {
		switch {
		case !ok:
			f.deltas[s] = math.NaN()
		case s%3 == 0:
			f.deltas[s] = float64(r.Intn(20000)) + 0.5
		default:
			f.deltas[s] = float64(r.Intn(20000))
		}
	}
	return f
}

func fillNaN(row []float32) {
	nan := float32(0)
	nan /= nan
	for j := range row {
		row[j] = nan
	}
}

// scatterRows returns t's n rows in reverse order at the odd rows of a
// (2n+1)-row table whose even rows, which no index points at, hold NaN.
// Row r of t is row at(n, r) of the table.
func scatterRows(t *tensor.Tensor) *tensor.Tensor {
	n := t.Dim(0)
	out := tensor.New(2*n+1, t.Dim(1))
	for r := 0; r <= 2*n; r += 2 {
		fillNaN(out.Row(r))
	}
	for r := 0; r < n; r++ {
		copy(out.Row(int(at(n, r))), t.Row(r))
	}
	return out
}

func at(n, r int) int32 { return int32(2*(n-1-r) + 1) }

// batch gathers the given pool targets, in that order, into layer
// inputs.
func (f *layerFixture) batch(ids []int) (hTgt, hNgh, eFeat, tEnc0, tEncD *tensor.Tensor, mask []bool) {
	n, k := len(ids), f.k
	hTgt, tEnc0 = tensor.New(n, f.d), tensor.New(n, f.dt)
	hNgh, eFeat, tEncD = tensor.New(n*k, f.d), tensor.New(n*k, f.de), tensor.New(n*k, f.dt)
	mask = make([]bool, 0, n*k)
	for p, i := range ids {
		copy(hTgt.Row(p), f.hTgt.Row(i))
		copy(tEnc0.Row(p), f.tEnc0.Row(i))
		for j := 0; j < k; j++ {
			copy(hNgh.Row(p*k+j), f.hNgh.Row(i*k+j))
			copy(eFeat.Row(p*k+j), f.eFeat.Row(i*k+j))
			copy(tEncD.Row(p*k+j), f.tEncD.Row(i*k+j))
		}
		mask = append(mask, f.mask[i*k:(i+1)*k]...)
	}
	return
}

// fused runs the tile pass over the given targets.
func (f *layerFixture) fused(ar *tensor.Arena, ids []int) []float32 {
	hTgt, hNgh, eFeat, tEnc0, tEncD, mask := f.batch(ids)
	return LayerForwardWith(ar, f.attn, f.merge, f.k, hTgt, hNgh, eFeat, tEnc0, tEncD, mask).Data()
}

// indexed runs the tile pass over the given targets with hTgt, hNgh and
// eFeat read in place from the scattered tables through indices; a
// target asked twice reads the same rows twice.
func (f *layerFixture) indexed(ar *tensor.Arena, ids []int) []float32 {
	_, _, _, tEnc0, tEncD, mask := f.batch(ids)
	out, _ := f.indexedWith(ar, ids, tEnc0, TimeRows{Enc: tEncD}, mask)
	return out
}

// encoding runs the engine's form of the pass over the given targets:
// rows read in place as indexed reads them, and the time segment
// encoded in the tiles from the slot deltas by src. It returns the
// output and the pass's time share.
func (f *layerFixture) encoding(ar *tensor.Arena, ids []int, src TimeSource) ([]float32, float64) {
	_, _, _, _, _, mask := f.batch(ids)
	tEnc0 := f.time.Encode(make([]float64, len(ids)))
	return f.indexedWith(ar, ids, tEnc0, TimeRows{Deltas: f.batchDeltas(ids), Source: src}, mask)
}

// indexedWith is the pass over the given targets' rows read through
// indices, with the time rows given.
func (f *layerFixture) indexedWith(ar *tensor.Arena, ids []int, tEnc0 *tensor.Tensor, tEncD TimeRows, mask []bool) ([]float32, float64) {
	n, k, pool := len(ids), f.k, f.hTgt.Dim(0)
	tgt, ngh := make([]int32, n), make([]int32, n*k)
	for p, i := range ids {
		tgt[p] = at(pool, i)
		for j := 0; j < k; j++ {
			ngh[p*k+j] = at(pool*k, i*k+j)
		}
	}
	pack := PackLayer(ar, f.attn, f.merge)
	out, share := LayerForwardPacked(ar, f.attn, f.merge, &pack, k, Rows{Data: f.hTgtAt, Idx: tgt},
		Rows{Data: f.hNghAt, Idx: ngh}, Rows{Data: f.eFeatAt, Idx: ngh}, tEnc0, tEncD, mask)
	return out.Data(), share
}

// batchDeltas gathers the given pool targets' slot deltas, in order.
func (f *layerFixture) batchDeltas(ids []int) []float64 {
	deltas := make([]float64, 0, len(ids)*f.k)
	for _, i := range ids {
		deltas = append(deltas, f.deltas[i*f.k:(i+1)*f.k]...)
	}
	return deltas
}

// composedEncoded is composed with Φ(0) and the slots' Φ(Δt) from one
// dense TimeEncoder.Encode slab each. A padded slot's NaN delta encodes
// to a NaN row that ConcatColsInto copies into kv and the core skips.
func (f *layerFixture) composedEncoded(ids []int) []float32 {
	hTgt, hNgh, eFeat, _, _, mask := f.batch(ids)
	tEnc0 := f.time.Encode(make([]float64, len(ids)))
	tEncD := f.time.Encode(f.batchDeltas(ids))
	q := tensor.New(len(ids), f.d+f.dt)
	tensor.ConcatColsInto(q, hTgt, tEnc0)
	kv := tensor.New(len(ids)*f.k, f.d+f.de+f.dt)
	tensor.ConcatColsInto(kv, hNgh, eFeat, tEncD)
	return f.merge.ForwardWith(nil, f.attn.ForwardWith(nil, q, kv, f.k, mask), hTgt).Data()
}

// guardedTimes is a TimeSource that counts the NaN deltas it is asked to
// encode: the fixture puts one under every padded slot, and the pass
// must encode valid slots only.
type guardedTimes struct {
	TimeSource
	nans *atomic.Int64
}

func (g guardedTimes) EncodeRow(dt float64, row []float32) {
	if dt != dt {
		g.nans.Add(1)
	}
	g.TimeSource.EncodeRow(dt, row)
}

// composed runs the same layer one public op at a time over the
// whole-batch q and kv. ConcatColsInto copies the NaN rows of padded
// slots into kv; the attention core skips them.
func (f *layerFixture) composed(ids []int) []float32 {
	hTgt, hNgh, eFeat, tEnc0, tEncD, mask := f.batch(ids)
	q := tensor.New(len(ids), f.d+f.dt)
	tensor.ConcatColsInto(q, hTgt, tEnc0)
	kv := tensor.New(len(ids)*f.k, f.d+f.de+f.dt)
	tensor.ConcatColsInto(kv, hNgh, eFeat, tEncD)
	return f.merge.ForwardWith(nil, f.attn.ForwardWith(nil, q, kv, f.k, mask), hTgt).Data()
}

func seq(n, pool, stride, off int) []int {
	ids := make([]int, n)
	for p := range ids {
		ids[p] = (p*stride + off) % pool
	}
	return ids
}

// TestLayerPassMatchesComposedOpsBitwise: the fused pass changes when a
// row is computed, never the order its terms are added, so it returns
// the bits of the layer composed from the public ops, serial and fanned
// out — over dense inputs and over inputs read in place through indices
// (repeated past n = 64), at both fixture shapes.
func TestLayerPassMatchesComposedOpsBitwise(t *testing.T) {
	const pool = 64
	defer parallel.SetDegree(parallel.SetDegree(2))
	for _, sh := range []layerShape{shape864, shape323232} {
		f := newLayerFixtureShape(pool, sh)
		for _, n := range []int{1, 3, layerTile, layerTile + 1, 200, 700} {
			ids := seq(n, pool, 5, 1)
			want := f.composed(ids)
			for form, got := range map[string][]float32{"dense": f.fused(nil, ids), "indexed": f.indexed(nil, ids)} {
				if at := sameBits(got, want); at >= 0 {
					t.Fatalf("%v %s n=%d: fused pass differs from the composed ops at element %d (%v vs %v)", sh, form, n, at, got[at], want[at])
				}
				for _, v := range got {
					if v != v {
						t.Fatalf("%v %s n=%d: a padded slot's or unindexed row's NaN reached the output", sh, form, n)
					}
				}
			}
		}
	}
}

// TestLayerEncodingPassMatchesComposedOpsBitwise: encoding Φ(Δt) in the
// tile, one valid slot at a time, gives the bits of the composed ops
// over a dense TimeEncoder.Encode slab, serial and fanned out, at both
// fixture shapes. Every padded slot's delta is NaN: none is encoded,
// and none reaches an output. (The engine's other time source, the
// precomputed table, is pinned the same way in internal/core.)
func TestLayerEncodingPassMatchesComposedOpsBitwise(t *testing.T) {
	const pool = 64
	prev := parallel.Degree()
	defer parallel.SetDegree(prev)
	for _, sh := range []layerShape{shape864, shape323232} {
		f := newLayerFixtureShape(pool, sh)
		for _, degree := range []int{1, 2} {
			parallel.SetDegree(degree)
			for _, n := range []int{1, 3, layerTile, layerTile + 1, 200, 700} {
				ids := seq(n, pool, 5, 1)
				want := f.composedEncoded(ids)
				var nans atomic.Int64
				got, share := f.encoding(nil, ids, guardedTimes{f.time, &nans})
				if nans.Load() != 0 {
					t.Fatalf("%v degree=%d n=%d: %d padded slots' deltas were encoded", sh, degree, n, nans.Load())
				}
				if at := sameBits(got, want); at >= 0 {
					t.Fatalf("%v degree=%d n=%d: encoding pass differs from the composed ops at element %d (%v vs %v)", sh, degree, n, at, got[at], want[at])
				}
				for _, v := range got {
					if v != v {
						t.Fatalf("%v degree=%d n=%d: a padded slot's NaN reached the output", sh, degree, n)
					}
				}
				if share < 0 || share > 1 {
					t.Fatalf("%v degree=%d n=%d: time share %v outside [0, 1]", sh, degree, n, share)
				}
			}
		}
	}
}

// TestLayerRowIndependenceBitwise extends the attention core's
// row-independence pin to the whole layer: a target's output bits
// depend only on its own rows and mask — not on the batch length (one
// target, either side of a tile boundary, either side of the fan-out
// cut-off), its position in the batch, the scratch slot its chunk was
// given, the parallel degree, or whether its rows were read in place
// through indices, or whether its time segment was copied from a slab
// or encoded in its tile (the encoding form against its own solo bits).
// The all-padded and one-slot targets sit at pool ids 0 and 1 and land
// on every kind of position.
func TestLayerRowIndependenceBitwise(t *testing.T) {
	const pool = 48
	prev := parallel.Degree()
	defer parallel.SetDegree(prev)
	for _, sh := range []layerShape{shape864, shape323232} {
		f := newLayerFixtureShape(pool, sh)
		alone, aloneEnc := make([][]float32, pool), make([][]float32, pool)
		for i := range alone {
			alone[i] = f.fused(nil, []int{i})
			aloneEnc[i], _ = f.encoding(nil, []int{i}, f.time)
		}
		w := len(alone[0])
		ar := tensor.NewArena() // reused dirty across calls, as the engine's is
		for _, degree := range []int{1, 2, 4} {
			parallel.SetDegree(degree)
			for _, n := range []int{1, layerTile - 1, layerTile, layerTile + 1, 255, 256, 1000} {
				// Strides coprime to the pool walk every target through
				// every residue of position mod tile.
				for _, stride := range []int{1, 7} {
					ids := seq(n, pool, stride, n%pool)
					for _, form := range []string{"dense", "indexed", "encoding"} {
						ar.Reset()
						var out []float32
						solo := alone
						switch form {
						case "dense":
							out = f.fused(ar, ids)
						case "indexed":
							out = f.indexed(ar, ids)
						default:
							out, _ = f.encoding(ar, ids, f.time)
							solo = aloneEnc
						}
						for p, i := range ids {
							if at := sameBits(out[p*w:(p+1)*w], solo[i]); at >= 0 {
								t.Fatalf("%v %s degree=%d n=%d: target %d at position %d differs from its solo bits (col %d)",
									sh, form, degree, n, i, p, at)
							}
						}
					}
				}
			}
		}
	}
}

// TestLayerPassAllocs: below the fan-out cut-off the pass is serial at
// any degree and must not touch the heap once the arena is warm; past
// it a call costs the fork-join (the pass's heap copy and one spawned
// worker at degree 2; thirty allocations before the fusion), nothing
// per tile — whether the tiles copy the time segment or encode it.
func TestLayerPassAllocs(t *testing.T) {
	const pool = 64
	f := newLayerFixture(pool)
	prev := parallel.Degree()
	defer parallel.SetDegree(prev)
	ar := tensor.NewArena()
	for _, tc := range []struct{ degree, n, max int }{
		{1, 64, 0}, {2, 64, 0}, {1, 512, 0}, {2, 512, 3},
	} {
		parallel.SetDegree(tc.degree)
		ids := seq(tc.n, pool, 5, 0)
		hTgt, hNgh, eFeat, tEnc0, tEncD, mask := f.batch(ids)
		pack := PackLayer(nil, f.attn, f.merge)
		tEnc := TimeRows{Deltas: f.batchDeltas(ids), Source: f.time}
		for form, run := range map[string]func(){
			"dense": func() {
				ar.Reset()
				LayerForwardWith(ar, f.attn, f.merge, f.k, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
			},
			"encoding": func() {
				ar.Reset()
				LayerForwardPacked(ar, f.attn, f.merge, &pack, f.k, Rows{Data: hTgt}, Rows{Data: hNgh}, Rows{Data: eFeat}, tEnc0, tEnc, mask)
			},
		} {
			run() // warm the arena
			if allocs := testing.AllocsPerRun(20, run); allocs > float64(tc.max) {
				t.Errorf("%s degree=%d n=%d: %v allocs/op, want <= %d", form, tc.degree, tc.n, allocs, tc.max)
			}
		}
	}
}

// TestLayerPassRejectsMismatchedShapes: the tile kernel indexes raw
// slices by the widths it was given, so inputs that do not chain must
// panic up front.
func TestLayerPassRejectsMismatchedShapes(t *testing.T) {
	f := newLayerFixture(8)
	hTgt, hNgh, eFeat, tEnc0, tEncD, mask := f.batch([]int{0, 1, 2})
	for name, call := range map[string]func(){
		"short mask": func() { LayerForwardWith(nil, f.attn, f.merge, f.k, hTgt, hNgh, eFeat, tEnc0, tEncD, mask[1:]) },
		"hNgh rows": func() {
			LayerForwardWith(nil, f.attn, f.merge, f.k, hTgt, tensor.New(4, f.d), eFeat, tEnc0, tEncD, mask)
		},
		"tEncD width": func() {
			LayerForwardWith(nil, f.attn, f.merge, f.k, hTgt, hNgh, eFeat, tEnc0, tensor.New(3*f.k, f.dt+1), mask)
		},
		"wrong merge": func() {
			LayerForwardWith(nil, f.attn, NewMergeLayer(tensor.NewRNG(1), 3, f.d, 4, 4), f.k, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
		},
		"eFeat narrow": func() {
			LayerForwardWith(nil, f.attn, f.merge, f.k, hTgt, hNgh, tensor.New(3*f.k, f.de-1), tEnc0, tEncD, mask)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkLayerPass prices the fused layer pass at stream-cold's
// shape: two heads, node, edge and time widths 32 (query 64, kv 96),
// FC1 96 → 32 → 32, k = 10 with about a third of the slots padded,
// 32-target tiles. The neighbour and target rows are read through an
// index from a 2 MB table of deduplicated rows, the edge rows through
// the edge ids from a 6 MB feature table — both past L2, as in the
// engine. "encode" encodes Φ(Δt) in the tiles as the engine does;
// "dense-time" copies a precomputed time segment instead, so the
// difference is the time encoding. It reports ns per target.
func BenchmarkLayerPass(b *testing.B) {
	const n, k, d, heads = 2048, 10, 32, 2
	const tableRows, edgeRows = 16 << 10, 48 << 10
	r := tensor.NewRNG(98)
	attn := NewTemporalAttention(r, heads, 2*d, 3*d)
	merge := NewMergeLayer(r, 2*d, d, d, d)
	for _, l := range []*Linear{attn.WQ, attn.WK, attn.WV, attn.WO, merge.FC1, merge.FC2} {
		copy(l.B.Data(), tensor.Randn(r, l.Out()).Data())
	}
	table, edges := tensor.Randn(r, tableRows, d), tensor.Randn(r, edgeRows, d)
	tgtIdx, nghIdx, eIdx := make([]int32, n), make([]int32, n*k), make([]int32, n*k)
	mask, deltas := make([]bool, n*k), make([]float64, n*k)
	for i := range tgtIdx {
		tgtIdx[i] = int32(r.Intn(tableRows))
	}
	for s := range mask {
		if mask[s] = r.Float64() > 0.3; mask[s] {
			nghIdx[s], eIdx[s] = int32(r.Intn(tableRows)), int32(r.Intn(edgeRows))
			deltas[s] = float64(r.Intn(3_000_000))
		}
	}
	tEnc0, tEncD := tensor.Randn(r, n, d), tensor.Randn(r, n*k, d)
	ar := tensor.NewArena()
	pack := PackLayer(nil, attn, merge)
	hTgt, hNgh, eFeat := Rows{Data: table, Idx: tgtIdx}, Rows{Data: table, Idx: nghIdx}, Rows{Data: edges, Idx: eIdx}
	for _, tc := range []struct {
		name string
		time TimeRows
	}{
		{"encode", TimeRows{Deltas: deltas, Source: NewTimeEncoder(d)}},
		{"dense-time", TimeRows{Enc: tEncD}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				LayerForwardPacked(ar, attn, merge, &pack, k, hTgt, hNgh, eFeat, tEnc0, tc.time, mask)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/target")
		})
	}
}
