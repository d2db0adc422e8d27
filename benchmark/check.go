package main

import (
	"math"
	"time"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// answers is what a workload's op log yielded for the output check:
// targets, the embedding rows the engine or server returned for them
// (nil where only a score came back), and for scored edges the logit
// returned. Pair i scores rows
// Pairs[i][0] (source) and Pairs[i][1] (destination).
type answers struct {
	Nodes  []int32
	Times  []float64
	Rows   [][]float32
	Pairs  [][2]int
	Logits []float64
}

func (a *answers) add(node int32, t float64, row []float32) int {
	a.Nodes = append(a.Nodes, node)
	a.Times = append(a.Times, t)
	if row != nil {
		row = append([]float32(nil), row...)
	}
	a.Rows = append(a.Rows, row)
	return len(a.Nodes) - 1
}

// checkResult counts rows checked and rows wrong, and prices the
// unoptimised recompute.
type checkResult struct {
	Checked    int
	Wrong      int
	BaselineUs float64 // per target, at reference host speed
}

// checkAnswers recomputes every target with tgat.Model.Embed — no
// dedup, no memo cache, no time table — over the final graph, and
// compares bit for bit. The recompute is timed at reference host speed.
func checkAnswers(m *tgat.Model, s *graph.Sampler, a *answers, h *hostRef) checkResult {
	if len(a.Nodes) == 0 {
		return checkResult{}
	}
	before := h.probe()
	t0 := time.Now()
	want := m.BaselineEmbedFunc(s)(a.Nodes, a.Times)
	el := time.Since(t0)
	us := float64(el) / float64(time.Microsecond) / slowdown(before, h.probe())
	res := checkResult{BaselineUs: us / float64(len(a.Nodes))}
	res.Checked, res.Wrong = compareRows(want, a.Rows)
	if len(a.Pairs) > 0 {
		d := m.Cfg.NodeDim
		src := tensor.New(len(a.Pairs), d)
		dst := tensor.New(len(a.Pairs), d)
		for i, p := range a.Pairs {
			copy(src.Row(i), want.Row(p[0]))
			copy(dst.Row(i), want.Row(p[1]))
		}
		logits := m.Score(src, dst)
		for i := range a.Pairs {
			res.Checked++
			if math.Float64bits(float64(logits.At(i, 0))) != math.Float64bits(a.Logits[i]) {
				res.Wrong++
			}
		}
	}
	return res
}

// compareRows counts the rows of got that were returned (a scored
// pair's endpoints have none) and those that differ from want in any
// bit.
func compareRows(want *tensor.Tensor, got [][]float32) (checked, bad int) {
	for i, row := range got {
		if row == nil {
			continue
		}
		checked++
		ref := want.Row(i)
		same := len(row) == len(ref)
		for j := 0; same && j < len(ref); j++ {
			same = math.Float32bits(row[j]) == math.Float32bits(ref[j])
		}
		if !same {
			bad++
		}
	}
	return checked, bad
}
