package core

import (
	"math"
	"testing"

	"tgopt/internal/tgat"
)

// TestEnginePaddingFoldsIntoOneRow: a padded neighbour slot recurses as
// ⟨0, 0⟩, so with dedup and the cache on, every level below the top
// computes one padding row per pass however many slots are padded, the
// outputs stay bitwise the baseline's, and on the next pass the cached
// ⟨0, 0⟩ row hits. The expected misses come from replaying the
// recursion through the sampler; before the fold each padded slot was
// its own ⟨0, t⟩ and the engine missed once per distinct t.
func TestEnginePaddingFoldsIntoOneRow(t *testing.T) {
	ds, _, s := engineTestSetup(t, 600)
	edges := ds.Graph.Edges()
	for _, layers := range []int{2, 3} {
		cfg := engineTestConfig()
		cfg.Layers = layers
		m, err := tgat.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(m, s, OptAll())
		base := m.BaselineEmbedFunc(s)
		stored := make([]map[uint64]bool, layers+1) // per level, the keys computed so far
		for l := range stored {
			stored[l] = map[uint64]bool{}
		}
		// Two early batches (few neighbours: most targets are padded)
		// and one later batch.
		for pass, lo := range []int{20, 60, 400} {
			var nodes []int32
			var ts []float64
			for _, e := range edges[lo : lo+40] {
				nodes = append(nodes, e.Src, e.Dst)
				ts = append(ts, e.Time, e.Time)
			}
			// Replay the recursion: a level's unique targets, its misses
			// against what earlier passes stored, and the next level's
			// targets, the misses and their sampled neighbours.
			wantMisses, padded, padAt := make([]int64, layers+1), 0, make([]bool, layers+1)
			curN, curT := nodes, ts
			for l := layers; l >= 1; l-- {
				seen := map[uint64]bool{}
				var missN []int32
				var missT []float64
				for i, v := range curN {
					key := Key(v, curT[i])
					if seen[key] {
						continue
					}
					seen[key] = true
					padAt[l] = padAt[l] || key == Key(0, 0)
					if !stored[l][key] {
						// A level without a cache recomputes every target.
						stored[l][key] = eng.CacheFor(l) != nil
						missN, missT = append(missN, v), append(missT, curT[i])
					}
				}
				wantMisses[l] = int64(len(missN))
				b := s.Sample(missN, missT)
				nextN, nextT := append([]int32(nil), missN...), append([]float64(nil), missT...)
				for j, ok := range b.Valid {
					if ok {
						nextN, nextT = append(nextN, b.Nghs[j]), append(nextT, b.Times[j])
					} else {
						nextN, nextT = append(nextN, 0), append(nextT, 0)
						padded++
					}
				}
				curN, curT = nextN, nextT
			}
			if padded == 0 {
				t.Fatalf("L=%d pass %d: no padded slot: the test exercises nothing", layers, pass)
			}

			before := eng.LayerCacheStats()
			got := eng.Embed(nodes, ts)
			want := base(nodes, ts)
			for i, v := range want.Data() {
				if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("L=%d pass %d: element %d = %v, baseline %v", layers, pass, i, got.Data()[i], v)
				}
			}
			for i, st := range eng.LayerCacheStats() {
				if miss := st.Misses - before[i].Misses; miss != wantMisses[st.Layer] {
					t.Errorf("L=%d pass %d level %d: %d misses, want %d (one padding row at most)", layers, pass, st.Layer, miss, wantMisses[st.Layer])
				}
			}
			// Every level below the top met the padding row: computed on
			// the first pass, a hit on the later ones (the miss counts
			// above exclude it).
			for l := 1; l < layers; l++ {
				if !padAt[l] {
					t.Fatalf("L=%d pass %d level %d: no padded slot reached this level", layers, pass, l)
				}
			}
		}
	}
}
