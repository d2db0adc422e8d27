package tgat

import (
	"tgopt/internal/nn"
	"tgopt/internal/tensor"
)

// QuantModel is the int8 inference view of a Model: the per-target
// projections (attention WQ/WO, the merge layers, the affinity head)
// carry pre-packed int8 weights (quantized once here, never per
// request), while feature tables, the time encoder and the attention
// WK/WV stay shared with the float model — the absorbed attention core
// (DESIGN.md §6) is one float32 code path for both precisions. The
// forward pass is Model.LayerForwardWith's — concatenation, the
// attention core, and ReLU run in float32; only the per-target matmuls
// are quantized.
type QuantModel struct {
	M        *Model
	Attn     []*nn.QuantTemporalAttention // Attn[l-1] serves layer l
	Merge    []*nn.QuantMergeLayer
	Affinity *nn.QuantMergeLayer
}

// QuantizeModel packs m's weights for the int8 path. m is retained (not
// copied): a later weight swap requires re-quantizing via a fresh
// QuantizeModel call, which the engine's swap path does.
func QuantizeModel(m *Model) *QuantModel {
	qm := &QuantModel{M: m}
	for l := 0; l < m.Cfg.Layers; l++ {
		qm.Attn = append(qm.Attn, nn.QuantizeAttention(m.Attn[l]))
		qm.Merge = append(qm.Merge, nn.QuantizeMergeLayer(m.Merge[l]))
	}
	qm.Affinity = nn.QuantizeMergeLayer(m.Affinity)
	return qm
}

// LayerForwardWith is Model.LayerForwardWith with the per-target
// projections through the int8 kernels: the same tile pass, the same
// shape contract.
func (qm *QuantModel) LayerForwardWith(ar *tensor.Arena, l int, hTgt, hNgh, eFeat, tEnc0, tEncD *tensor.Tensor, mask []bool) *tensor.Tensor {
	return nn.QuantLayerForwardWith(ar, qm.Attn[l-1], qm.Merge[l-1], qm.M.Cfg.NumNeighbors, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
}

// ScoreWith is Model.ScoreWith through the int8 affinity head.
func (qm *QuantModel) ScoreWith(ar *tensor.Arena, hSrc, hDst *tensor.Tensor) *tensor.Tensor {
	return qm.Affinity.ForwardWith(ar, hSrc, hDst)
}
