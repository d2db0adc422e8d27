package nn

import (
	"fmt"
	"time"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// This file is the one forward path of a TGAT layer (Eqs. 4–7): a
// single row-parallel pass in which a worker carries a tile of targets
// through q assembly → WQ → absorbed attention → WO → merge concat →
// FC1 → ReLU → FC2 while the tile's intermediates are cache-resident
// (DESIGN.md §6.2). The public ops — Linear, MergeLayer,
// TemporalAttention.ForwardWith — run the same row kernels one op at a
// time; composing them gives the same bits, one whole-batch pass and
// one fork-join per op.

// layerTile is the number of targets a worker takes through the whole
// layer before starting the next. At the benchmark shape a tile's
// intermediates are ~185 KB, of which the assembled kv rows are 120 KB:
// resident in L2 from assembly to the attention core's last read.
const layerTile = 32

// Rows is a layer input read where it lives: row i is Data's row
// Idx[i], or Data's row i when Idx is nil. The engine hands the layer
// pass its feature tables and its deduplicated embeddings this way, with
// the node or edge ids and §4.1's inverse index as Idx, instead of
// gathering them into batch-shaped copies.
type Rows struct {
	Data *tensor.Tensor // (rows, width)
	Idx  []int32
}

// Len returns the number of rows the source addresses.
func (r Rows) Len() int {
	if r.Idx != nil {
		return len(r.Idx)
	}
	return r.Data.Dim(0)
}

// Width returns the row width.
func (r Rows) Width() int { return r.Data.Dim(1) }

// Slice returns the source of rows [lo,hi), its header drawn from ar
// (heap when ar is nil) when the rows are Data's own.
func (r Rows) Slice(ar *tensor.Arena, lo, hi int) Rows {
	if r.Idx != nil {
		return Rows{Data: r.Data, Idx: r.Idx[lo:hi]}
	}
	w := r.Width()
	return Rows{Data: ar.Wrap(r.Data.Data()[lo*w:hi*w], hi-lo, w)}
}

// src flattens the source for the tile loops.
func (r Rows) src() rowSrc {
	return rowSrc{data: r.Data.Data(), idx: r.Idx, w: r.Width()}
}

// rowSrc is a Rows as the tile loops read it.
type rowSrc struct {
	data []float32
	idx  []int32
	w    int
}

// row returns row i of the source.
func (r rowSrc) row(i int) []float32 {
	if r.idx != nil {
		i = int(r.idx[i])
	}
	return r.data[i*r.w : (i+1)*r.w]
}

// prefetch hints rows [lo,hi) of an indexed source toward L2. A dense
// source is read in order, which the hardware prefetcher already
// follows.
func (r rowSrc) prefetch(lo, hi int) {
	if r.idx != nil {
		tensor.PrefetchRows(r.data, r.w, r.idx[lo:hi])
	}
}

// TimeSource writes Φ(dt) into a row of width Dim(): the model's
// TimeEncoder, or a precomputed table in front of it that returns the
// same bits (core.TimeTable).
type TimeSource interface {
	Dim() int
	EncodeRow(dt float64, row []float32)
}

// TimeRows is the time segment of the neighbor rows z_j: row g of Enc
// (n*k, dt), or, when Enc is nil, Φ(Deltas[g]) written by Source
// straight into the tile's kv row. Either way a padded slot's row is
// never read, and a padded slot's delta is never encoded.
type TimeRows struct {
	Enc    *tensor.Tensor
	Deltas []float64
	Source TimeSource
}

// len returns the number of slots the segment addresses.
func (tr TimeRows) len() int {
	if tr.Enc != nil {
		return tr.Enc.Dim(0)
	}
	return len(tr.Deltas)
}

// width returns the segment's row width.
func (tr TimeRows) width() int {
	if tr.Enc != nil {
		return tr.Enc.Dim(1)
	}
	return tr.Source.Dim()
}

// LayerForwardWith runs one TGAT layer for n targets with k neighbor
// slots each: attention of z_i = hTgt ‖ tEnc0 over z_j = hNgh ‖ eFeat ‖
// tEncD, then FFN(attention ‖ hTgt).
//
//	hTgt   (n, d)      tEnc0  (n, dt)
//	hNgh   (n*k, d)    eFeat  (n*k, de)    tEncD  (n*k, dt)
//	mask   len n*k     false marks padded slots
//
// It returns (n, merge out) drawn from ar (heap when ar is nil), bitwise
// what merge.ForwardWith(attn.ForwardWith(q, kv), hTgt) returns over the
// concatenated q and kv. Rows of hNgh, eFeat and tEncD under a padded
// slot are never read. The layer's weights are packed into ar for this
// call; LayerForwardPacked is the same pass over packs made earlier, over
// row sources, of which these dense tensors are the nil-index case, and
// over a time segment the tiles may encode themselves.
func LayerForwardWith(ar *tensor.Arena, attn *TemporalAttention, merge *MergeLayer, k int, hTgt, hNgh, eFeat, tEnc0, tEncD *tensor.Tensor, mask []bool) *tensor.Tensor {
	pack := PackLayer(ar, attn, merge)
	out, _ := LayerForwardPacked(ar, attn, merge, &pack, k, Rows{Data: hTgt}, Rows{Data: hNgh}, Rows{Data: eFeat}, tEnc0, TimeRows{Enc: tEncD}, mask)
	return out
}

// LayerPack holds tensor.PackLinear of the five projections a layer pass
// runs through the vector kernels: WQ, WV, WO, FC1 and FC2. A nil entry,
// as in the zero LayerPack, runs that projection's scalar kernel to the
// same bits. A pack is a copy: it is stale after any write to the
// weights it was made from.
type LayerPack struct {
	wq, wv, wo, fc1, fc2 []float32
}

// PackLayer packs attn's and merge's projections into ar (heap when ar
// is nil).
func PackLayer(ar *tensor.Arena, attn *TemporalAttention, merge *MergeLayer) LayerPack {
	return LayerPack{
		wq: tensor.PackLinear(ar, attn.WQ.W), wv: tensor.PackLinear(ar, attn.WV.W),
		wo: tensor.PackLinear(ar, attn.WO.W), fc1: tensor.PackLinear(ar, merge.FC1.W),
		fc2: tensor.PackLinear(ar, merge.FC2.W),
	}
}

// LayerForwardPacked is LayerForwardWith over pack, which PackLayer made
// from attn and merge's current weights, reading hTgt, hNgh and eFeat
// where they live and the time segment from tEncD. tEnc0 is computed per
// call, so it is dense.
//
// It also returns the share, in [0, 1], of the tiles' time spent
// writing the time segment. With deltas and a source that is the time
// encoding done inside the pass, and a caller splits the pass's wall
// time by it.
func LayerForwardPacked(ar *tensor.Arena, attn *TemporalAttention, merge *MergeLayer, pack *LayerPack, k int, hTgt, hNgh, eFeat Rows, tEnc0 *tensor.Tensor, tEncD TimeRows, mask []bool) (*tensor.Tensor, float64) {
	ops := layerOps{wq: attn.WQ, wo: attn.WO, fc1: merge.FC1, fc2: merge.FC2}
	n, d := hTgt.Len(), hTgt.Width()
	de, dt := eFeat.Width(), tEnc0.Dim(1)
	if tEnc0.Dim(0) != n || hNgh.Len() != n*k || eFeat.Len() != n*k || tEncD.len() != n*k || len(mask) != n*k {
		panic(fmt.Sprintf("nn: layer rows: %d targets × %d slots, got tEnc0 %d hNgh %d eFeat %d tEncD %d mask %d",
			n, k, tEnc0.Dim(0), hNgh.Len(), eFeat.Len(), tEncD.len(), len(mask)))
	}
	if hNgh.Width() != d || tEncD.width() != dt {
		panic(fmt.Sprintf("nn: layer widths: hNgh %d != hTgt %d, or tEncD %d != tEnc0 %d", hNgh.Width(), d, tEncD.width(), dt))
	}
	e := ops.wq.Out()
	if ops.wq.In() != d+dt || ops.wo.In() != e || ops.fc1.In() != ops.wo.Out()+d || ops.fc2.In() != ops.fc1.Out() {
		panic(fmt.Sprintf("nn: layer projections do not chain: WQ %d→%d, WO %d→%d, FC1 %d→%d, FC2 %d→%d over node width %d, time width %d",
			ops.wq.In(), e, ops.wo.In(), ops.wo.Out(), ops.fc1.In(), ops.fc1.Out(), ops.fc2.In(), ops.fc2.Out(), d, dt))
	}
	out := ar.Tensor(n, ops.fc2.Out()) // every row is written below
	p := layerPass{
		layerOps: ops,
		core:     newAttnCore(attn.WK, attn.WV, pack.wv, attn.Heads, e, k, d+de+dt),
		wqT:      pack.wq, woT: pack.wo, fc1T: pack.fc1, fc2T: pack.fc2,
		d: d, de: de, dt: dt,
		hTgt: hTgt.src(), hNgh: hNgh.src(), eFeat: eFeat.src(),
		tEnc0: tEnc0.Data(), deltas: tEncD.Deltas, times: tEncD.Source, mask: mask,
		out:  out.Data(),
		tile: min(layerTile, n),
	}
	if tEncD.Enc != nil {
		p.tEncD = tEncD.Enc.Data()
	}
	// One read of the degree sizes the scratch and caps the workers:
	// worker w runs every tile it pulls in slot w, so no two workers
	// share a slot.
	degree := parallel.Degree()
	fanOut := parallel.FansOut(n, degree)
	slots := 1
	if fanOut {
		slots = degree
	}
	// All scratch — the tile slots and their clocks — is drawn before
	// any fan-out, so the arena is never bumped inside the parallel
	// region; the weight packs are read-only to every tile.
	p.f32 = ar.Float32s(slots * p.tileFloats())
	p.clocks = ar.Float64s(2 * slots)
	clear(p.clocks)
	// The method value (a heap copy of p) exists only on the fan-out
	// branch so the serial path stays allocation-free. Workers pull one
	// tile at a time, so the join waits for one tile at most.
	if fanOut {
		parallel.ForWorkers(n, p.tile, degree, p.rows)
	} else {
		p.rows(0, 0, n)
	}
	var timeNs, busyNs float64
	for w := 0; w < slots; w++ {
		timeNs += p.clocks[2*w]
		busyNs += p.clocks[2*w+1]
	}
	share := 0.0
	if busyNs > 0 {
		share = min(timeNs/busyNs, 1)
	}
	return out, share
}

// layerOps names the four per-target projections of one layer.
type layerOps struct {
	wq, wo, fc1, fc2 *Linear
}

// layerPass carries the operands of one LayerForwardPacked call into its
// tile kernel.
type layerPass struct {
	layerOps
	core                 attnCore  // weights and widths; runTile points it at a tile
	d, de, dt            int       // node, edge and time widths
	wqT, woT, fc1T, fc2T []float32 // the LayerPack's entries: nil runs the scalar kernel

	hTgt, hNgh, eFeat rowSrc // read where they live
	tEnc0             []float32
	tEncD             []float32 // the dense time segment, or nil: encode deltas with times
	deltas            []float64
	times             TimeSource
	mask              []bool
	out               []float32

	tile   int       // targets per tile
	f32    []float32 // one tile's scratch per worker slot
	clocks []float64 // per slot: ns writing the time segment, ns in rows
}

// tileFloats is the float32 scratch one tile needs: q, qp, kv, the
// core's qz (heads × kDim a target) and scores, ctx, the WO output, the
// merge input and the FC1 output.
func (p layerPass) tileFloats() int {
	c := p.core
	perTarget := (p.d + p.dt) + c.e + c.k*c.kDim + c.heads*c.kDim + c.k + c.e + p.wo.Out() + p.fc1.In() + p.fc1.Out()
	return p.tile * perTarget
}

// rows computes output rows [lo,hi) tile by tile in worker w's scratch
// slot, adding its time to the slot's clocks.
func (p layerPass) rows(w, lo, hi int) {
	start := time.Now()
	buf := p.f32[w*p.tileFloats():][:p.tileFloats()]
	carve := func(perTarget int) []float32 {
		s := buf[:p.tile*perTarget]
		buf = buf[len(s):]
		return s
	}
	c := p.core
	t := layerScratch{
		q: carve(p.d + p.dt), qp: carve(c.e), kv: carve(c.k * c.kDim),
		qz: carve(c.heads * c.kDim), scores: carve(c.k), ctx: carve(c.e),
		ao: carve(p.wo.Out()), x: carve(p.fc1.In()), h: carve(p.fc1.Out()),
	}
	clock := p.clocks[2*w : 2*w+2]
	for ; lo < hi; lo += p.tile {
		p.runTile(t, clock, lo, min(lo+p.tile, hi))
	}
	clock[1] += float64(time.Since(start))
}

// layerScratch is one slot's tile-local buffers, each sized for a full
// tile.
type layerScratch struct {
	q, qp, kv, qz, scores, ctx, ao, x, h []float32
}

// runTile takes targets [lo,hi) through the whole layer, adding the time
// it spends writing the time segment to clock[0].
func (p layerPass) runTile(t layerScratch, clock []float64, lo, hi int) {
	m := hi - lo
	d, de, dt, k := p.d, p.de, p.dt, p.core.k
	qd, kd := d+dt, p.core.kDim

	// The tile's neighbour and edge-feature rows are gathered through
	// their indices from tables larger than L2: hint them in now, so
	// their misses overlap q assembly and the query projection.
	p.hNgh.prefetch(lo*k, hi*k)
	p.eFeat.prefetch(lo*k, hi*k)

	// z_i = h_i ‖ Φ(0), then the query projection.
	for r := 0; r < m; r++ {
		i := lo + r
		row := t.q[r*qd : (r+1)*qd]
		copy(row, p.hTgt.row(i))
		copy(row[d:], p.tEnc0[i*dt:(i+1)*dt])
	}
	qp := t.qp[:m*p.core.e]
	tensor.LinearRowsPacked(t.q[:m*qd], m, p.wq.W, p.wqT, p.wq.B, qp)

	// z_j = h_j ‖ e_ij ‖ Φ(t−t_j) for valid slots only, each segment
	// read from its source through its index: the core never reads a
	// padded slot's row, so it is never assembled, and its delta is
	// never encoded. The time segment is written in a loop of its own,
	// so its share of the tile is measured once per tile.
	mask := p.mask[lo*k : hi*k]
	for s, ok := range mask {
		if !ok {
			continue
		}
		row := t.kv[s*kd : (s+1)*kd]
		copy(row, p.hNgh.row(lo*k+s))
		copy(row[d:], p.eFeat.row(lo*k+s))
	}
	start := time.Now()
	for s, ok := range mask {
		if !ok {
			continue
		}
		g, seg := lo*k+s, t.kv[s*kd+d+de:(s+1)*kd]
		if p.tEncD != nil {
			copy(seg, p.tEncD[g*dt:(g+1)*dt])
		} else {
			p.times.EncodeRow(p.deltas[g], seg)
		}
	}
	clock[0] += float64(time.Since(start))

	c := p.core
	c.qp, c.kv, c.mask = qp, t.kv, mask
	c.ctx, c.qz, c.scores = t.ctx, t.qz, t.scores
	c.rows(0, m)

	// FFN(WO·ctx ‖ h_i).
	aw := p.wo.Out()
	ao := t.ao[:m*aw]
	tensor.LinearRowsPacked(t.ctx[:m*c.e], m, p.wo.W, p.woT, p.wo.B, ao)
	xw := aw + d
	for r := 0; r < m; r++ {
		row := t.x[r*xw : (r+1)*xw]
		copy(row, ao[r*aw:(r+1)*aw])
		copy(row[aw:], p.hTgt.row(lo+r))
	}
	h := t.h[:m*p.fc1.Out()]
	tensor.LinearRowsPacked(t.x[:m*xw], m, p.fc1.W, p.fc1T, p.fc1.B, h)
	tensor.ReLUFloats(h)
	ow := p.fc2.Out()
	tensor.LinearRowsPacked(h, m, p.fc2.W, p.fc2T, p.fc2.B, p.out[lo*ow:hi*ow])
}
