package experiments

import (
	"math"
	"testing"

	"tgopt/internal/core"
	"tgopt/internal/nn"
	"tgopt/internal/tensor"
)

// maxQuantAPDelta is the gate on what int8 inference may cost in
// ranking quality: |AP(float32) − AP(int8)| on the link-prediction task
// below.
const maxQuantAPDelta = 0.01

// TestQuantAPWithinGate runs the paper's stream-inference protocol with
// sampled negatives at both precisions: every real edge (src, dst, t)
// of snap-msg at the default setup is a positive, paired with one
// negative (src, rnd, t) drawn uniformly from the node set, and both
// engines — all paper optimizations on, so the comparison isolates
// precision — score the identical pairs. Ties between a positive and a
// negative rank the negative first (negatives take the lower indices),
// so quantization can only be charged, never credited, for collapsing
// distinct scores.
func TestQuantAPWithinGate(t *testing.T) {
	setup := DefaultSetup()
	w, err := LoadWorkload("snap-msg", setup)
	if err != nil {
		t.Fatal(err)
	}
	edges := w.DS.Graph.Edges()
	n := len(edges)

	rng := tensor.NewRNG(setup.Seed + 17)
	negDst := make([]int32, n)
	for i := range negDst {
		negDst[i] = int32(rng.Uint64() % uint64(w.DS.Graph.NumNodes()))
	}

	type side struct {
		eng    *core.Engine
		ar     *tensor.Arena
		scores []float64 // negatives in [0, n), positives in [n, 2n)
	}
	var sides []*side
	for _, q := range []core.QuantMode{core.QuantOff, core.QuantInt8} {
		opt := optAllScaled(setup)
		opt.Quant = q
		s := &side{eng: core.NewEngine(w.Model, w.Sampler, opt), ar: tensor.NewArena(), scores: make([]float64, 2*n)}
		sides = append(sides, s)
	}
	labels := make([]bool, 2*n)
	for i := n; i < 2*n; i++ {
		labels[i] = true
	}

	batch, d := setup.BatchSize, w.Model.Cfg.NodeDim
	nodes := make([]int32, 3*batch)
	ts := make([]float64, 3*batch)
	for start := 0; start < n; start += batch {
		nb := min(batch, n-start)
		// Targets packed src ‖ dst ‖ negative-dst, timestamps shared.
		for i, e := range edges[start : start+nb] {
			nodes[i], nodes[nb+i], nodes[2*nb+i] = e.Src, e.Dst, negDst[start+i]
			ts[i], ts[nb+i], ts[2*nb+i] = e.Time, e.Time, e.Time
		}
		for _, s := range sides {
			s.ar.Reset()
			h := s.eng.EmbedWith(s.ar, nodes[:3*nb], ts[:3*nb]).Data()
			hSrc := s.ar.Wrap(h[:nb*d], nb, d)
			pos := s.eng.ScoreWith(s.ar, hSrc, s.ar.Wrap(h[nb*d:2*nb*d], nb, d))
			neg := s.eng.ScoreWith(s.ar, hSrc, s.ar.Wrap(h[2*nb*d:3*nb*d], nb, d))
			for i := 0; i < nb; i++ {
				s.scores[start+i] = float64(neg.At(i, 0))
				s.scores[n+start+i] = float64(pos.At(i, 0))
			}
		}
	}

	apF := nn.AveragePrecision(sides[0].scores, labels)
	apQ := nn.AveragePrecision(sides[1].scores, labels)
	t.Logf("%d edges: AP float32 %.4f, int8 %.4f, delta %.4f", n, apF, apQ, math.Abs(apF-apQ))
	if apF == 0 || apQ == 0 {
		t.Fatalf("degenerate AP: float32 %v, int8 %v", apF, apQ)
	}
	if delta := math.Abs(apF - apQ); delta > maxQuantAPDelta {
		t.Fatalf("AP delta %.4f exceeds %.2f (float32 %.4f, int8 %.4f)", delta, maxQuantAPDelta, apF, apQ)
	}
}
