// Package trainer implements standard link-prediction training for the
// TGAT model (the paper trains its models "according to standard
// training procedures for link prediction" before measuring inference).
// Each training batch embeds the source, destination, and a negatively
// sampled destination for every edge, scores the positive and negative
// pairs with the affinity head, and minimizes binary cross-entropy with
// Adam. The forward pass is built on internal/autograd over the very
// same parameter tensors the inference layers use, so a trained model
// needs no conversion step.
package trainer

import (
	"errors"
	"fmt"
	"io/fs"
	"math"

	"tgopt/internal/autograd"
	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/nn"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Config controls the training run.
type Config struct {
	Epochs    int
	BatchSize int
	LR        float64
	// TrainFrac is the chronological fraction of edges used for
	// training; the remainder is the validation split.
	TrainFrac float64
	Seed      uint64
	// Dedup applies TGOpt's deduplication filter inside the training
	// forward pass — the §7 observation that, while memoization is
	// unsound during training (parameters change every step),
	// deduplication still is: duplicated targets compute once and their
	// gradients fan in through the inverse index. Losses and gradients
	// are unchanged within floating-point tolerance.
	Dedup bool
	// Dropout is the training-time dropout probability applied to the
	// attention output and the merge hidden layer (TGAT's default is
	// 0.1; 0 disables). Inference never applies dropout.
	Dropout float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// CheckpointPath, when non-empty, enables crash-safe checkpointing:
	// the full training state (parameters, Adam moments and step count,
	// both RNG streams, epoch/batch cursors, loss history) is written
	// atomically through internal/checkpoint at every epoch boundary and,
	// if CheckpointEvery > 0, every CheckpointEvery batches.
	CheckpointPath string
	// CheckpointEvery is the mid-epoch checkpoint cadence in batches
	// (0 = epoch boundaries only).
	CheckpointEvery int
	// Resume loads CheckpointPath before training and continues from the
	// recorded position. A missing file starts fresh; a corrupt one is an
	// error (delete it explicitly to discard).
	Resume bool
	// MaxBatches, when > 0, stops the run cleanly after that many batches
	// (checkpointing the exit position), simulating preemption. The
	// returned Result has Interrupted set.
	MaxBatches int
	// MaxRollbacks bounds how many times a non-finite batch may roll the
	// run back to the last checkpoint before Train gives up (0 means the
	// default of 8). Only meaningful with CheckpointPath set.
	MaxRollbacks int
}

// DefaultConfig returns a laptop-scale training configuration.
func DefaultConfig() Config {
	return Config{Epochs: 3, BatchSize: 200, LR: 1e-3, TrainFrac: 0.7, Seed: 1}
}

// Result summarizes a training run.
type Result struct {
	EpochLoss []float64 // mean train loss per epoch
	ValAP     float64   // average precision on the validation split
	ValAcc    float64   // accuracy at threshold 0.5

	NonFinite   int  // batches whose loss or gradients were NaN/Inf (step skipped)
	Rollbacks   int  // times a non-finite batch restored the last checkpoint
	Interrupted bool // run stopped early by MaxBatches (state checkpointed)
}

// params mirrors the model's trainable tensors as autograd leaves. The
// wrapping is rebuilt every step so gradients never leak across steps.
type params struct {
	tensors []*tensor.Tensor
	values  map[*tensor.Tensor]*autograd.Value
}

func wrapParams(m *tgat.Model) *params {
	ts := m.Params()
	p := &params{tensors: ts, values: make(map[*tensor.Tensor]*autograd.Value, len(ts))}
	for _, t := range ts {
		p.values[t] = autograd.Param(t)
	}
	return p
}

func (p *params) val(t *tensor.Tensor) *autograd.Value { return p.values[t] }

func (p *params) grads() []*tensor.Tensor {
	gs := make([]*tensor.Tensor, len(p.tensors))
	for i, t := range p.tensors {
		gs[i] = p.values[t].Grad()
	}
	return gs
}

// Forward computes top-layer embeddings on the autograd tape — the
// differentiable twin of tgat.Model.Embed. Exported so tests can verify
// it agrees with the inference forward bit-for-bit.
func Forward(m *tgat.Model, s *graph.Sampler, p *Tape, nodes []int32, ts []float64) *autograd.Value {
	return p.embed(m, s, m.Cfg.Layers, nodes, ts)
}

// Tape bundles the wrapped parameters plus constant feature tables for
// one forward/backward pass.
type Tape struct {
	p        *params
	nodeFeat *autograd.Value
	edgeFeat *autograd.Value
	dedup    bool
	dropout  float64
	rng      *tensor.RNG
}

// NewTape wraps the model's parameters and features for one step.
func NewTape(m *tgat.Model) *Tape {
	return &Tape{
		p:        wrapParams(m),
		nodeFeat: autograd.Const(m.NodeFeat),
		edgeFeat: autograd.Const(m.EdgeFeat),
	}
}

// SetDedup toggles the training-time deduplication filter (§7).
func (tp *Tape) SetDedup(on bool) { tp.dedup = on }

// SetDropout enables training-time dropout with probability p, drawing
// masks from the given deterministic generator.
func (tp *Tape) SetDropout(p float64, r *tensor.RNG) {
	tp.dropout = p
	tp.rng = r
}

// drop applies the tape's dropout setting (no-op when disabled).
func (tp *Tape) drop(v *autograd.Value) *autograd.Value {
	if tp.dropout <= 0 || tp.rng == nil {
		return v
	}
	return autograd.Dropout(v, tp.dropout, tp.rng)
}

// Grads returns gradients aligned with m.Params() order.
func (tp *Tape) Grads() []*tensor.Tensor { return tp.p.grads() }

func (tp *Tape) embed(m *tgat.Model, s *graph.Sampler, l int, nodes []int32, ts []float64) *autograd.Value {
	if l == 0 {
		return autograd.GatherRows(tp.nodeFeat, nodes)
	}
	if tp.dedup {
		res := core.DedupFilter(nodes, ts)
		if res.Unique() < len(nodes) {
			// Compute unique targets once; fan the rows (and, in the
			// backward pass, the gradients) back out through the
			// inverse index.
			h := tp.embedCompute(m, s, l, res.Nodes, res.Times)
			return autograd.GatherRows(h, res.InvIdx)
		}
	}
	return tp.embedCompute(m, s, l, nodes, ts)
}

func (tp *Tape) embedCompute(m *tgat.Model, s *graph.Sampler, l int, nodes []int32, ts []float64) *autograd.Value {
	n := len(nodes)
	k := m.Cfg.NumNeighbors
	b := s.Sample(nodes, ts)

	allNodes := make([]int32, n+n*k)
	allTs := make([]float64, n+n*k)
	copy(allNodes, nodes)
	copy(allTs, ts)
	copy(allNodes[n:], b.Nghs)
	copy(allTs[n:], b.Times)
	hAll := tp.embed(m, s, l-1, allNodes, allTs)
	hTgt := autograd.SliceRows(hAll, 0, n)
	hNgh := autograd.SliceRows(hAll, n, n+n*k)

	omega := tp.p.val(m.Time.Omega)
	phi := tp.p.val(m.Time.Phi)
	tEnc0 := autograd.CosAffine(omega, phi, make([]float64, n))
	deltas := make([]float64, n*k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			deltas[i*k+j] = ts[i] - b.Times[i*k+j]
		}
	}
	tEncD := autograd.CosAffine(omega, phi, deltas)
	eFeat := autograd.GatherRows(tp.edgeFeat, b.EIdxs)

	attn := m.Attn[l-1]
	q := autograd.ConcatCols(hTgt, tEnc0)
	kv := autograd.ConcatCols(hNgh, eFeat, tEncD)
	qp := tp.linear(q, attn.WQ)
	kp := tp.linear(kv, attn.WK)
	vp := tp.linear(kv, attn.WV)
	ctx := autograd.Attend(qp, kp, vp, k, b.Valid, attn.Heads)
	attnOut := tp.drop(tp.linear(ctx, attn.WO))

	return tp.merge(autograd.ConcatCols(attnOut, hTgt), m.Merge[l-1])
}

func (tp *Tape) linear(x *autograd.Value, l *nn.Linear) *autograd.Value {
	var b *autograd.Value
	if l.B != nil {
		b = tp.p.val(l.B)
	}
	return autograd.Linear(x, tp.p.val(l.W), b)
}

func (tp *Tape) merge(x *autograd.Value, m *nn.MergeLayer) *autograd.Value {
	h := tp.drop(autograd.ReLU(tp.linear(x, m.FC1)))
	return tp.linear(h, m.FC2)
}

// Score runs the affinity head on the tape.
func (tp *Tape) Score(m *tgat.Model, hSrc, hDst *autograd.Value) *autograd.Value {
	return tp.merge(autograd.ConcatCols(hSrc, hDst), m.Affinity)
}

// negativeSampler draws corrupting destination nodes uniformly from the
// destination population observed in the edge stream (items for
// bipartite graphs, any node for homogeneous ones).
type negativeSampler struct {
	dsts []int32
	r    *tensor.RNG
}

func newNegativeSampler(g *graph.Graph, seed uint64) *negativeSampler {
	seen := map[int32]struct{}{}
	var dsts []int32
	for _, e := range g.Edges() {
		if _, ok := seen[e.Dst]; !ok {
			seen[e.Dst] = struct{}{}
			dsts = append(dsts, e.Dst)
		}
	}
	return &negativeSampler{dsts: dsts, r: tensor.NewRNG(seed)}
}

func (ns *negativeSampler) sample() int32 { return ns.dsts[ns.r.Intn(len(ns.dsts))] }

// preStepHook, when non-nil, runs before each batch with the number of
// batches executed so far this run. Tests use it to inject faults
// (poisoning a parameter to NaN) at a chosen step.
var preStepHook func(step int)

// Train runs link-prediction training and returns the loss trajectory
// and validation metrics. The sampler must use the same k as the model.
//
// With cfg.CheckpointPath set, the run checkpoints its full state
// atomically and can resume after a crash (cfg.Resume) with the same
// loss trajectory an uninterrupted run would produce. Batches with
// non-finite loss or gradients never reach the optimizer: without
// checkpointing they are skipped and counted; with it, the run rolls
// back to the last checkpoint (fresh negative samples and dropout masks
// give the retry a different trajectory) up to MaxRollbacks times.
func Train(m *tgat.Model, g *graph.Graph, s *graph.Sampler, cfg Config) (*Result, error) {
	if cfg.Epochs < 1 || cfg.BatchSize < 1 {
		return nil, fmt.Errorf("trainer: bad config %+v", cfg)
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac > 1 {
		return nil, fmt.Errorf("trainer: TrainFrac %v out of (0,1]", cfg.TrainFrac)
	}
	if s.K() != m.Cfg.NumNeighbors {
		return nil, fmt.Errorf("trainer: sampler k %d != model NumNeighbors %d", s.K(), m.Cfg.NumNeighbors)
	}
	if cfg.Resume && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("trainer: Resume requires CheckpointPath")
	}
	if cfg.CheckpointEvery < 0 || cfg.MaxBatches < 0 || cfg.MaxRollbacks < 0 {
		return nil, fmt.Errorf("trainer: negative checkpoint config %+v", cfg)
	}
	edges := g.Edges()
	split := int(float64(len(edges)) * cfg.TrainFrac)
	if split < 1 {
		return nil, fmt.Errorf("trainer: empty training split")
	}
	train := edges[:split]
	val := edges[split:]
	neg := newNegativeSampler(g, cfg.Seed)
	opt := nn.NewAdam(m.Params(), cfg.LR)
	dropRNG := tensor.NewRNG(cfg.Seed ^ 0xD20)

	ckpt := cfg.CheckpointPath != ""
	maxRollbacks := cfg.MaxRollbacks
	if maxRollbacks == 0 {
		maxRollbacks = 8
	}
	st := &trainState{}
	if cfg.Resume {
		loaded, err := loadTrainCheckpoint(cfg.CheckpointPath, m, opt, neg.r, dropRNG)
		switch {
		case err == nil:
			st = loaded
			if cfg.Logf != nil {
				cfg.Logf("resumed from %s: epoch %d batch %d", cfg.CheckpointPath, st.epoch, st.batch)
			}
		case errors.Is(err, fs.ErrNotExist):
			if cfg.Logf != nil {
				cfg.Logf("no checkpoint at %s, starting fresh", cfg.CheckpointPath)
			}
		default:
			return nil, fmt.Errorf("trainer: resume: %w", err)
		}
	}
	save := func() error {
		if !ckpt {
			return nil
		}
		return saveTrainCheckpoint(checkpoint.OS{}, cfg.CheckpointPath, m, opt, neg.r, dropRNG, st)
	}
	// An initial checkpoint so the first rollback always has a target.
	if err := save(); err != nil {
		return nil, fmt.Errorf("trainer: initial checkpoint: %w", err)
	}

	res := &Result{}
	batchesPerEpoch := (len(train) + cfg.BatchSize - 1) / cfg.BatchSize
	done := 0 // batches executed this run (fault hook and MaxBatches cadence)
	for st.epoch < cfg.Epochs {
		for st.batch < batchesPerEpoch {
			if cfg.MaxBatches > 0 && done >= cfg.MaxBatches {
				if err := save(); err != nil {
					return nil, fmt.Errorf("trainer: interrupt checkpoint: %w", err)
				}
				res.Interrupted = true
				res.EpochLoss = st.epochLoss
				if cfg.Logf != nil {
					cfg.Logf("interrupted after %d batches at epoch %d batch %d", done, st.epoch, st.batch)
				}
				return res, nil
			}
			if preStepHook != nil {
				preStepHook(done)
			}
			start := st.batch * cfg.BatchSize
			end := start + cfg.BatchSize
			if end > len(train) {
				end = len(train)
			}
			loss, ok := trainStep(m, s, train[start:end], neg, opt, cfg, dropRNG)
			done++
			if !ok {
				res.NonFinite++
				if cfg.Logf != nil {
					cfg.Logf("epoch %d batch %d: non-finite loss/gradients (%v), optimizer step skipped", st.epoch, st.batch, loss)
				}
				if !ckpt {
					st.batch++ // skip the batch; nothing to restore from
					continue
				}
				if res.Rollbacks >= maxRollbacks {
					return res, fmt.Errorf("trainer: diverged: %d non-finite batches after %d rollbacks", res.NonFinite, res.Rollbacks)
				}
				// Restore everything except the RNG streams: the retried
				// batch sees fresh negatives and dropout masks, so a
				// deterministic NaN cannot loop forever.
				rb, err := loadTrainCheckpoint(cfg.CheckpointPath, m, opt, tensor.NewRNG(0), tensor.NewRNG(0))
				if err != nil {
					return res, fmt.Errorf("trainer: rollback: %w", err)
				}
				*st = *rb
				res.Rollbacks++
				continue
			}
			st.lossSum += loss
			st.batches++
			st.batch++
			if ckpt && cfg.CheckpointEvery > 0 && done%cfg.CheckpointEvery == 0 {
				if err := save(); err != nil {
					return nil, fmt.Errorf("trainer: periodic checkpoint: %w", err)
				}
			}
		}
		mean := st.lossSum / float64(st.batches)
		st.epochLoss = append(st.epochLoss, mean)
		if cfg.Logf != nil {
			cfg.Logf("epoch %d/%d: mean loss %.4f", st.epoch+1, cfg.Epochs, mean)
		}
		st.epoch++
		st.batch, st.lossSum, st.batches = 0, 0, 0
		if err := save(); err != nil {
			return nil, fmt.Errorf("trainer: epoch checkpoint: %w", err)
		}
	}
	res.EpochLoss = st.epochLoss
	if len(val) > 0 {
		res.ValAP, res.ValAcc = Evaluate(m, s, val, neg)
		if cfg.Logf != nil {
			cfg.Logf("validation: AP %.4f  accuracy %.4f", res.ValAP, res.ValAcc)
		}
	}
	return res, nil
}

// finiteTensors reports whether every element of every non-nil tensor
// is finite.
func finiteTensors(ts []*tensor.Tensor) bool {
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, v := range t.Data() {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

// trainStep runs one forward/backward pass and, when the loss and all
// gradients are finite, applies the optimizer step. It returns the loss
// and whether the step was applied; a non-finite batch leaves the
// parameters and optimizer state untouched.
func trainStep(m *tgat.Model, s *graph.Sampler, batch []graph.Edge, neg *negativeSampler, opt *nn.Adam, cfg Config, dropRNG *tensor.RNG) (float64, bool) {
	nb := len(batch)
	// Pack sources, destinations, negatives into one embedding batch.
	nodes := make([]int32, 3*nb)
	ts := make([]float64, 3*nb)
	for i, e := range batch {
		nodes[i] = e.Src
		nodes[nb+i] = e.Dst
		nodes[2*nb+i] = neg.sample()
		ts[i], ts[nb+i], ts[2*nb+i] = e.Time, e.Time, e.Time
	}
	tp := NewTape(m)
	tp.SetDedup(cfg.Dedup)
	tp.SetDropout(cfg.Dropout, dropRNG)
	h := Forward(m, s, tp, nodes, ts)
	hSrc := autograd.SliceRows(h, 0, nb)
	hDst := autograd.SliceRows(h, nb, 2*nb)
	hNeg := autograd.SliceRows(h, 2*nb, 3*nb)
	posLogits := tp.Score(m, hSrc, hDst)
	negLogits := tp.Score(m, hSrc, hNeg)
	logits := autograd.ConcatCols(posLogits, negLogits) // (nb, 2) flattened below
	labels := make([]float32, 2*nb)
	for i := 0; i < nb; i++ {
		labels[2*i] = 1 // column-major within each row: pos, neg
	}
	loss := autograd.BCEWithLogits(logits, labels)
	loss.Backward()
	lv := float64(loss.T.Data()[0])
	grads := tp.Grads()
	if math.IsNaN(lv) || math.IsInf(lv, 0) || !finiteTensors(grads) {
		return lv, false
	}
	opt.Step(grads)
	return lv, true
}

// Evaluate scores each validation edge against one sampled negative and
// reports average precision and accuracy.
func Evaluate(m *tgat.Model, s *graph.Sampler, val []graph.Edge, neg *negativeSampler) (ap, acc float64) {
	var scores []float64
	var labels []bool
	const chunk = 200
	for start := 0; start < len(val); start += chunk {
		end := start + chunk
		if end > len(val) {
			end = len(val)
		}
		batch := val[start:end]
		nb := len(batch)
		nodes := make([]int32, 3*nb)
		ts := make([]float64, 3*nb)
		for i, e := range batch {
			nodes[i] = e.Src
			nodes[nb+i] = e.Dst
			nodes[2*nb+i] = neg.sample()
			ts[i], ts[nb+i], ts[2*nb+i] = e.Time, e.Time, e.Time
		}
		h := m.Embed(s, nodes, ts)
		d := m.Cfg.NodeDim
		hSrc := tensor.FromSlice(h.Data()[:nb*d], nb, d)
		hDst := tensor.FromSlice(h.Data()[nb*d:2*nb*d], nb, d)
		hNeg := tensor.FromSlice(h.Data()[2*nb*d:], nb, d)
		pos := m.Score(hSrc, hDst)
		negl := m.Score(hSrc, hNeg)
		for i := 0; i < nb; i++ {
			scores = append(scores, float64(pos.At(i, 0)))
			labels = append(labels, true)
			scores = append(scores, float64(negl.At(i, 0)))
			labels = append(labels, false)
		}
	}
	if len(scores) == 0 {
		return math.NaN(), math.NaN()
	}
	return nn.AveragePrecision(scores, labels), nn.Accuracy(scores, labels)
}
