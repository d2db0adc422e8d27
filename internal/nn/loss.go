package nn

// AveragePrecision computes the area under the precision–recall curve
// for scores with binary labels — the standard link-prediction metric
// reported for TGAT. Higher scores should indicate positive edges.
func AveragePrecision(scores []float64, labels []bool) float64 {
	n := len(scores)
	if n == 0 || n != len(labels) {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Sort descending by score (insertion-free: simple sort.Slice clone
	// avoided to keep determinism on ties via index order).
	quicksortByScore(idx, scores)
	var tp, fp int
	var ap float64
	var positives int
	for _, l := range labels {
		if l {
			positives++
		}
	}
	if positives == 0 {
		return 0
	}
	for _, i := range idx {
		if labels[i] {
			tp++
			ap += float64(tp) / float64(tp+fp)
		} else {
			fp++
		}
	}
	return ap / float64(positives)
}

func quicksortByScore(idx []int, scores []float64) {
	if len(idx) < 2 {
		return
	}
	// Simple iterative quicksort on the index slice, descending score,
	// ascending index for ties (deterministic).
	type span struct{ lo, hi int }
	stack := []span{{0, len(idx) - 1}}
	less := func(a, b int) bool {
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return a < b
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, hi := s.lo, s.hi
		for lo < hi {
			p := idx[(lo+hi)/2]
			i, j := lo, hi
			for i <= j {
				for less(idx[i], p) {
					i++
				}
				for less(p, idx[j]) {
					j--
				}
				if i <= j {
					idx[i], idx[j] = idx[j], idx[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				if lo < j {
					stack = append(stack, span{lo, j})
				}
				lo = i
			} else {
				if i < hi {
					stack = append(stack, span{i, hi})
				}
				hi = j
			}
		}
	}
}

// Accuracy computes the fraction of scores classified correctly at a 0.5
// probability threshold, given logit scores.
func Accuracy(logits []float64, labels []bool) float64 {
	if len(logits) == 0 {
		return 0
	}
	correct := 0
	for i, x := range logits {
		if (x > 0) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(logits))
}
