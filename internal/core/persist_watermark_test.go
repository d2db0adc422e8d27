package core

import (
	"encoding/binary"
	"io"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// watermarkNodes is the node count of watermarkSetup's graphs.
const watermarkNodes = 12

// watermarkSetup returns a 2-layer model and a chronological stream
// whose last edge is at time ≤ 1000.
func watermarkSetup(t *testing.T) (*tgat.Model, []graph.Edge) {
	t.Helper()
	r := tensor.NewRNG(9)
	var stream []graph.Edge
	for clock := 5.0; clock < 1000; clock += 1 + r.Float64()*9 {
		src, dst := int32(1+r.Intn(watermarkNodes)), int32(1+r.Intn(watermarkNodes))
		if src != dst {
			stream = append(stream, graph.Edge{Src: src, Dst: dst, Time: math.Floor(clock), Idx: int32(len(stream) + 1)})
		}
	}
	nodeFeat := tensor.Randn(r, watermarkNodes+1, 16)
	edgeFeat := tensor.Randn(r, len(stream)+2, 16)
	for j := 0; j < 16; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 4}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	return m, stream
}

// liveEngine builds a graph holding edges and an engine over it.
func liveEngine(t *testing.T, m *tgat.Model, edges []graph.Edge) (*Engine, *graph.Sampler) {
	t.Helper()
	dyn := graph.NewDynamic(watermarkNodes)
	for _, e := range edges {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	s := graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	return NewEngine(m, s, OptAll()), s
}

// writeSnapshot hand-builds eng's cache snapshot: envelope version 4
// with watermark w, or version 3, which carries no watermark.
func writeSnapshot(t *testing.T, eng *Engine, path string, version uint32, w float64) {
	t.Helper()
	err := checkpoint.WriteFS(checkpoint.OS{}, path, version, func(wr io.Writer) error {
		hdr := binary.LittleEndian.AppendUint64(nil, eng.model.Version())
		if version == 4 {
			hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(w))
		}
		hdr = binary.LittleEndian.AppendUint32(hdr, 1) // one cached layer
		hdr = binary.LittleEndian.AppendUint32(hdr, 1) // layer 1
		if _, err := wr.Write(hdr); err != nil {
			return err
		}
		_, err := eng.caches[1].WriteTo(wr)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLoadCachesWatermarkRefusesAndReplays: a live engine trusts a
// snapshot only for the graph state its watermark W names. A NaN W, a
// W past the loading graph's clock (the graph lost an edge the saver
// held) and a version-3 file without W are refused with nothing
// loaded; a graph that gained an edge at or past W loads the snapshot
// and replays the edge. Every reply afterwards is bitwise the baseline
// over the loading graph.
func TestLoadCachesWatermarkRefusesAndReplays(t *testing.T) {
	m, stream := watermarkSetup(t)
	last := stream[len(stream)-1]
	// The extra edge touches both asked nodes after the stream's clock.
	extra := graph.Edge{Src: last.Src, Dst: last.Dst, Time: 1100, Idx: int32(len(stream) + 1)}
	nodes := []int32{last.Src, last.Dst, stream[len(stream)-2].Src}
	ts := []float64{1200, 1200, 1200}
	withExtra := append(slices.Clone(stream), extra)

	// saved warms an engine over edges and returns it with its reply.
	saved := func(edges []graph.Edge) (*Engine, []float32) {
		eng, _ := liveEngine(t, m, edges)
		h := eng.Embed(nodes, ts).Data()
		if eng.CacheLen() == 0 {
			t.Fatal("warming pass cached nothing")
		}
		return eng, h
	}
	// loadInto boots a cold engine over edges, loads path into it, and
	// checks its next reply against the baseline over the same graph.
	loadInto := func(label string, edges []graph.Edge, path string, stale []float32, wantLoad bool) {
		t.Helper()
		eng, s := liveEngine(t, m, edges)
		want := m.BaselineEmbedFunc(s)(nodes, ts).Data()
		if slices.Equal(stale, want) {
			t.Fatalf("%s: the saved rows already match the loading graph: the case tests nothing", label)
		}
		err := eng.LoadCaches(path)
		if wantLoad {
			if err != nil || eng.CacheLen() == 0 {
				t.Fatalf("%s: load err %v, %d entries; want a warm start", label, err, eng.CacheLen())
			}
		} else if err == nil || eng.CacheLen() != 0 {
			t.Fatalf("%s: load err %v, %d entries; want a refusal with nothing loaded", label, err, eng.CacheLen())
		}
		if got := eng.Embed(nodes, ts).Data(); !slices.Equal(got, want) {
			t.Fatalf("%s: reply after the load differs from the baseline", label)
		}
	}

	dir := t.TempDir()
	lost, lostRows := saved(withExtra)
	for _, tc := range []struct {
		name    string
		version uint32
		w       float64
	}{
		{"nan", 4, math.NaN()},
		{"past-the-clock", 4, lost.dyn.Watermark()},
		{"version-3", 3, 0},
	} {
		path := filepath.Join(dir, tc.name+".tgc")
		writeSnapshot(t, lost, path, tc.version, tc.w)
		loadInto(tc.name, stream, path, lostRows, false)
	}

	gained, gainedRows := saved(stream)
	if w := gained.dyn.Watermark(); w > extra.Time {
		t.Fatalf("watermark %v past the gained edge at %v", w, extra.Time)
	}
	path := filepath.Join(dir, "gained.tgc")
	writeSnapshot(t, gained, path, 4, gained.dyn.Watermark())
	loadInto("gained", withExtra, path, gainedRows, true)
}
