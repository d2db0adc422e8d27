package core

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// inputsNodes is the node count of the warm-start fixture's graphs.
const inputsNodes = 12

// warmInputs is what a layer-1 row reads besides ⟨node, t⟩: the
// architecture and parameters (cfg, whose seed draws them), the feature
// tables and the graph its windows come from. version is the model's
// label, which is not an input.
type warmInputs struct {
	cfg                tgat.Config
	nodeFeat, edgeFeat *tensor.Tensor
	edges              []graph.Edge
	version            uint64
}

// newWarmInputs returns a 2-layer model's inputs over a chronological
// stream of integral times whose last edge is at time < 1000.
func newWarmInputs() warmInputs {
	r := tensor.NewRNG(9)
	var stream []graph.Edge
	for clock := 5.0; clock < 1000; clock += 1 + r.Float64()*9 {
		src, dst := int32(1+r.Intn(inputsNodes)), int32(1+r.Intn(inputsNodes))
		if src != dst {
			stream = append(stream, graph.Edge{Src: src, Dst: dst, Time: math.Floor(clock), Idx: int32(len(stream) + 1)})
		}
	}
	in := warmInputs{
		cfg:      tgat.Config{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 7},
		nodeFeat: tensor.Randn(r, inputsNodes+1, 16),
		edgeFeat: tensor.Randn(r, len(stream)+4, 16),
		edges:    stream,
	}
	for j := 0; j < 16; j++ {
		in.nodeFeat.Set(0, 0, j)
		in.edgeFeat.Set(0, 0, j)
	}
	return in
}

// engine builds the model these inputs name, labelled in.version, and a
// cache-enabled engine over a live graph holding in.edges.
func (in warmInputs) engine(t *testing.T) (*Engine, *tgat.Model, *graph.Dynamic) {
	t.Helper()
	m, err := tgat.NewModel(in.cfg, in.nodeFeat, in.edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	if in.version != 0 {
		path := filepath.Join(t.TempDir(), "params.tgp")
		if err := m.SaveParamsFS(checkpoint.OS{}, path); err != nil {
			t.Fatal(err)
		}
		sp, err := m.ParseParamsFS(checkpoint.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		m.ApplyParams(sp, in.version)
	}
	dyn := graph.NewDynamic(inputsNodes)
	for _, e := range in.edges {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	s := graph.NewDynamicSampler(dyn, in.cfg.NumNeighbors, graph.MostRecent, 0)
	return NewEngine(m, s, OptAll()), m, dyn
}

// TestWarmStartKeepsOnlyRowsWithTheSameInputs pins the one rule a
// snapshot load follows: a saved row is kept only if it would read the
// same inputs on the loading engine. A saver warms an engine and saves
// it; a loader over other inputs loads the file; the loader's next
// reply must be bitwise the baseline over the loader's model and graph.
// Other parameters under the same label, another head count, other
// node features, and a saved edge the loader lacks that ties the
// clock were all accepted whole before the rule; each now refuses the
// file or drops exactly the rows whose window moved.
func TestWarmStartKeepsOnlyRowsWithTheSameInputs(t *testing.T) {
	base := newWarmInputs()
	last := base.edges[len(base.edges)-1]
	// tie holds the clock at last's time between two nodes last does not touch.
	var free []int32
	for v := int32(1); len(free) < 2; v++ {
		if v != last.Src && v != last.Dst {
			free = append(free, v)
		}
	}
	tie := graph.Edge{Src: free[0], Dst: free[1], Time: last.Time, Idx: int32(len(base.edges) + 1)}
	extra := graph.Edge{Src: last.Src, Dst: last.Dst, Time: 1100, Idx: int32(len(base.edges) + 1)}
	later := graph.Edge{Src: tie.Src, Dst: tie.Dst, Time: 1100, Idx: int32(len(base.edges) + 1)}
	nodes := []int32{last.Src, last.Dst, tie.Src, tie.Dst, base.edges[len(base.edges)-3].Src}
	ts := []float64{1200, 1200, 1200, 1200, 1200}
	with := func(e graph.Edge) func(*warmInputs) {
		return func(in *warmInputs) { in.edges = append(slices.Clone(in.edges), e) }
	}

	const (
		refused = iota // the load fails and nothing is resident
		whole          // every saved row loads
		partly         // some saved rows load, not all
	)
	for _, tc := range []struct {
		name          string
		saver, loader func(*warmInputs)
		// after is appended to the loader's graph once the load returns,
		// each edge invalidated for as /v1/ingest does.
		after []graph.Edge
		want  int
	}{
		{"other parameters", nil, func(in *warmInputs) { in.cfg.Seed = 99 }, nil, refused},
		{"other head count", nil, func(in *warmInputs) { in.cfg.Heads = 4 }, nil, refused},
		{"other node features", nil, func(in *warmInputs) {
			in.nodeFeat = tensor.Randn(tensor.NewRNG(31), inputsNodes+1, 16)
		}, nil, refused},
		{"lost edge tying the clock", with(tie), nil, nil, partly},
		{"gained edge", nil, with(extra), nil, partly},
		{"three layers into two", func(in *warmInputs) { in.cfg.Layers = 3 }, nil, nil, refused},
		{"same parameters, other version label", nil, func(in *warmInputs) { in.version = 5 }, nil, whole},
		{"append after the load", nil, nil, []graph.Edge{later}, whole},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saverIn, loaderIn := base, base
			if tc.saver != nil {
				tc.saver(&saverIn)
			}
			if tc.loader != nil {
				tc.loader(&loaderIn)
			}
			saver, _, _ := saverIn.engine(t)
			stale := saver.Embed(nodes, ts)
			saved := saver.CacheLen()
			if saved == 0 {
				t.Fatal("warming pass cached nothing")
			}
			path := filepath.Join(t.TempDir(), "cache.tgc")
			if err := saver.SaveCaches(path); err != nil {
				t.Fatal(err)
			}

			eng, m, dyn := loaderIn.engine(t)
			err := eng.LoadCaches(path)
			n := eng.CacheLen()
			for _, e := range tc.after {
				if _, err := dyn.Append(e); err != nil {
					t.Fatal(err)
				}
				eng.InvalidateAppend(e.Src, e.Dst, e.Time)
			}

			s := graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)
			want := m.BaselineEmbedFunc(s)(nodes, ts)
			if tc.want != whole || tc.after != nil {
				if sameBits(stale, want) {
					t.Fatal("the saver's reply already matches the loader's baseline: the case tests nothing")
				}
			}
			if got := eng.Embed(nodes, ts); !sameBits(got, want) {
				t.Fatal("reply after the load differs from the baseline over the loader's model and graph")
			}
			switch {
			case tc.want == refused && (err == nil || n != 0):
				t.Fatalf("load err %v, %d entries; want a refusal with nothing loaded", err, n)
			case tc.want == whole && (err != nil || n != saved):
				t.Fatalf("load err %v, %d of %d entries; want every row", err, n, saved)
			case tc.want == partly && (err != nil || n == 0 || n == saved):
				t.Fatalf("load err %v, %d of %d entries; want the rows the change reaches dropped, the rest loaded", err, n, saved)
			}
		})
	}
}
