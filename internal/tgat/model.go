package tgat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"tgopt/internal/checkpoint"
	"tgopt/internal/graph"
	"tgopt/internal/nn"
	"tgopt/internal/tensor"
)

// Model is a TGAT model instance: per-layer attention and merge
// parameters, the shared time encoder, static node and edge feature
// tables (row 0 of each is the all-zero padding row), and the
// link-prediction affinity head.
type Model struct {
	Cfg      Config
	NodeFeat *tensor.Tensor // (|V|+1, NodeDim)
	EdgeFeat *tensor.Tensor // (|E|+1, EdgeDim)
	Time     *nn.TimeEncoder
	Attn     []*nn.TemporalAttention // Attn[l-1] serves layer l
	Merge    []*nn.MergeLayer        // Merge[l-1] serves layer l
	Affinity *nn.MergeLayer          // link-prediction head -> 1 logit

	// version names the parameter values the tensors above hold. It is
	// set when the model is built (WithParams) and never changes: a new
	// params version is a new model, so every engine, router and server
	// built over this one reads one number.
	version uint64
}

// NewModel creates a model with Xavier-initialized parameters over the
// given feature tables. nodeFeat must have NodeDim columns and edgeFeat
// EdgeDim columns; both must keep row 0 all-zero (padding).
func NewModel(cfg Config, nodeFeat, edgeFeat *tensor.Tensor) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodeFeat.Dim(1) != cfg.NodeDim {
		return nil, fmt.Errorf("tgat: node features have %d columns, config says %d", nodeFeat.Dim(1), cfg.NodeDim)
	}
	if edgeFeat.Dim(1) != cfg.EdgeDim {
		return nil, fmt.Errorf("tgat: edge features have %d columns, config says %d", edgeFeat.Dim(1), cfg.EdgeDim)
	}
	r := tensor.NewRNG(cfg.Seed)
	m := &Model{
		Cfg:      cfg,
		NodeFeat: nodeFeat,
		EdgeFeat: edgeFeat,
		Time:     nn.NewTimeEncoder(cfg.TimeDim),
	}
	for l := 0; l < cfg.Layers; l++ {
		m.Attn = append(m.Attn, nn.NewTemporalAttention(r, cfg.Heads, cfg.QDim(), cfg.KDim()))
		m.Merge = append(m.Merge, nn.NewMergeLayer(r, cfg.QDim(), cfg.NodeDim, cfg.NodeDim, cfg.NodeDim))
	}
	m.Affinity = nn.NewMergeLayer(r, cfg.NodeDim, cfg.NodeDim, cfg.NodeDim, 1)
	return m, nil
}

// LayerForward runs one TGAT layer (Eqs. 4–7) for n targets.
//
//	l      layer index in 1..Layers
//	hTgt   (n, NodeDim)    previous-layer embeddings of the targets
//	hNgh   (n*k, NodeDim)  previous-layer embeddings of sampled neighbors
//	eFeat  (n*k, EdgeDim)  edge features of the sampled interactions
//	tEnc0  (n, TimeDim)    Φ(0) rows for the targets
//	tEncD  (n*k, TimeDim)  Φ(t−t_j) rows for the neighbor slots
//	mask   len n*k         slot validity
//
// Returns the layer-l embeddings (n, NodeDim).
func (m *Model) LayerForward(l int, hTgt, hNgh, eFeat, tEnc0, tEncD *tensor.Tensor, mask []bool) *tensor.Tensor {
	return m.LayerForwardWith(nil, l, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
}

// LayerForwardWith is LayerForward with every intermediate and the
// output drawn from ar (heap when ar is nil). The result is invalidated
// by ar.Reset. The layer is one row-parallel pass over tiles of targets
// (nn.LayerForwardWith): neither z_i nor z_j is materialised for the
// batch.
func (m *Model) LayerForwardWith(ar *tensor.Arena, l int, hTgt, hNgh, eFeat, tEnc0, tEncD *tensor.Tensor, mask []bool) *tensor.Tensor {
	return nn.LayerForwardWith(ar, m.Attn[l-1], m.Merge[l-1], m.Cfg.NumNeighbors, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
}

// PackLayers returns each layer's weight packs (nn.PackLayer), indexed
// l−1 and drawn from the heap. They hold the parameters' current values,
// which a served model never changes after its engines are built.
func (m *Model) PackLayers() []nn.LayerPack {
	packs := make([]nn.LayerPack, m.Cfg.Layers)
	for l := range packs {
		packs[l] = nn.PackLayer(nil, m.Attn[l], m.Merge[l])
	}
	return packs
}

// LayerForwardPacked is LayerForwardWith over layer l's entry of a
// PackLayers result of this model, reading hTgt, hNgh
// and eFeat where they live (nn.Rows) and the time segment from tEncD
// (nn.TimeRows). It also returns the share of the pass spent writing
// the time segment (nn.LayerForwardPacked).
func (m *Model) LayerForwardPacked(ar *tensor.Arena, l int, pack *nn.LayerPack, hTgt, hNgh, eFeat nn.Rows, tEnc0 *tensor.Tensor, tEncD nn.TimeRows, mask []bool) (*tensor.Tensor, float64) {
	return nn.LayerForwardPacked(ar, m.Attn[l-1], m.Merge[l-1], pack, m.Cfg.NumNeighbors, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
}

// Embed computes baseline (unoptimized) temporal embeddings at the top
// layer for the given node–timestamp targets, recursively expanding the
// L-hop temporal subgraph exactly as the original TGAT implementation
// does: no deduplication, no caching, no precomputed time encodings.
// The instrumented baseline is a core engine with every optimization
// off.
func (m *Model) Embed(s *graph.Sampler, nodes []int32, ts []float64) *tensor.Tensor {
	return m.embed(s, m.Cfg.Layers, nodes, ts)
}

func (m *Model) embed(s *graph.Sampler, l int, nodes []int32, ts []float64) *tensor.Tensor {
	if l == 0 {
		return gatherRows32(m.NodeFeat, nodes)
	}
	n := len(nodes)
	k := m.Cfg.NumNeighbors
	b := s.Sample(nodes, ts)

	// Recurse over targets ∪ neighbors at layer l-1.
	allNodes := make([]int32, n+n*k)
	allTs := make([]float64, n+n*k)
	copy(allNodes, nodes)
	copy(allTs, ts)
	copy(allNodes[n:], b.Nghs)
	copy(allTs[n:], b.Times)
	hAll := m.embed(s, l-1, allNodes, allTs)

	d := m.Cfg.NodeDim
	hTgt := tensor.FromSlice(hAll.Data()[:n*d], n, d)
	hNgh := tensor.FromSlice(hAll.Data()[n*d:], n*k, d)

	// Time encodings: Φ(0) for targets, Φ(t − t_j) for neighbor slots
	// (padding slots carry t_j = t, so their delta is 0, matching the
	// original implementation's zero-padded deltas).
	tEnc0 := m.Time.Encode(make([]float64, n))
	deltas := make([]float64, n*k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			deltas[i*k+j] = ts[i] - b.Times[i*k+j]
		}
	}
	tEncD := m.Time.Encode(deltas)
	eFeat := gatherRows32(m.EdgeFeat, b.EIdxs)
	return m.LayerForward(l, hTgt, hNgh, eFeat, tEnc0, tEncD, b.Valid)
}

// FeatureRow returns the row of a feature table with the given number of
// rows that id reads: id itself, or the all-zero padding row 0 for an id
// past the table. Edges ingested after the table was built have such
// ids; they carry no features. Every reader of NodeFeat and EdgeFeat
// goes through this one rule.
func FeatureRow(id int32, rows int) int32 {
	if int(id) >= rows || id < 0 {
		return 0
	}
	return id
}

// gatherRows32 copies the FeatureRow of every id into a new tensor.
func gatherRows32(t *tensor.Tensor, idx []int32) *tensor.Tensor {
	out := tensor.New(len(idx), t.Dim(1))
	for i, id := range idx {
		copy(out.Row(i), t.Row(int(FeatureRow(id, t.Dim(0)))))
	}
	return out
}

// Score computes link-prediction logits for paired rows of hSrc and
// hDst, shape (n, 1).
func (m *Model) Score(hSrc, hDst *tensor.Tensor) *tensor.Tensor {
	return m.Affinity.Forward(hSrc, hDst)
}

// ScoreWith is Score with the output drawn from ar (heap when ar is
// nil). The result is invalidated by ar.Reset. The affinity head's
// weights are packed into ar for this call.
func (m *Model) ScoreWith(ar *tensor.Arena, hSrc, hDst *tensor.Tensor) *tensor.Tensor {
	return m.Affinity.ForwardWith(ar, hSrc, hDst)
}

// PackScore returns the affinity head's weight pack (nn.PackMerge),
// drawn from the heap. Like PackLayers it holds the parameters' current
// values.
func (m *Model) PackScore() nn.MergePack { return nn.PackMerge(nil, m.Affinity) }

// ScorePacked is ScoreWith over a PackScore result of this model.
func (m *Model) ScorePacked(ar *tensor.Arena, pack *nn.MergePack, hSrc, hDst *tensor.Tensor) *tensor.Tensor {
	return m.Affinity.ForwardPacked(ar, pack, hSrc, hDst)
}

// Attribution is one neighbor's contribution to a target's top-layer
// embedding, for model introspection.
type Attribution struct {
	Neighbor int32
	EdgeIdx  int32
	EdgeTime float64
	// Weight is the neighbor's attention probability averaged over
	// heads at the top layer.
	Weight float64
}

// Explain computes the temporal embedding of a single ⟨node, t⟩ target
// and returns the top-layer attention attribution over its sampled
// neighbors, sorted by descending weight — which past interactions the
// model attended to. The embedding equals Embed's output for the same
// target.
func (m *Model) Explain(s *graph.Sampler, node int32, t float64) (*tensor.Tensor, []Attribution) {
	nodes := []int32{node}
	ts := []float64{t}
	k := m.Cfg.NumNeighbors
	b := s.Sample(nodes, ts)

	allNodes := append(append([]int32{}, nodes...), b.Nghs...)
	allTs := append(append([]float64{}, ts...), b.Times...)
	hAll := m.embed(s, m.Cfg.Layers-1, allNodes, allTs)
	d := m.Cfg.NodeDim
	hTgt := tensor.FromSlice(hAll.Data()[:d], 1, d)
	hNgh := tensor.FromSlice(hAll.Data()[d:], k, d)

	tEnc0 := m.Time.Encode([]float64{0})
	deltas := make([]float64, k)
	for j := 0; j < k; j++ {
		deltas[j] = t - b.Times[j]
	}
	tEncD := m.Time.Encode(deltas)
	eFeat := gatherRows32(m.EdgeFeat, b.EIdxs)

	q := tensor.ConcatCols(hTgt, tEnc0)
	kv := tensor.ConcatCols(hNgh, eFeat, tEncD)
	l := m.Cfg.Layers
	attnOut, weights := m.Attn[l-1].Forward(q, kv, k, b.Valid, true)
	h := m.Merge[l-1].Forward(attnOut, hTgt)

	var attrs []Attribution
	for j := 0; j < k; j++ {
		if !b.Valid[j] {
			continue
		}
		var wsum float64
		for head := 0; head < m.Cfg.Heads; head++ {
			wsum += float64(weights.At(0, head, j))
		}
		attrs = append(attrs, Attribution{
			Neighbor: b.Nghs[j],
			EdgeIdx:  b.EIdxs[j],
			EdgeTime: b.Times[j],
			Weight:   wsum / float64(m.Cfg.Heads),
		})
	}
	sort.SliceStable(attrs, func(a, b int) bool { return attrs[a].Weight > attrs[b].Weight })
	return h, attrs
}

// Params returns every trainable tensor in a stable order (time encoder
// first, then layers bottom-up, then the affinity head).
func (m *Model) Params() []*tensor.Tensor {
	ps := m.Time.Params()
	for l := 0; l < m.Cfg.Layers; l++ {
		ps = append(ps, m.Attn[l].Params()...)
		ps = append(ps, m.Merge[l].Params()...)
	}
	ps = append(ps, m.Affinity.Params()...)
	return ps
}

// paramsVersion is the envelope version of a parameter checkpoint
// (v2: checksummed checkpoint envelope; the raw tensor stream that
// preceded it is no longer read).
const paramsVersion uint32 = 2

// SaveParams writes all trainable parameters to path as an atomic,
// checksummed snapshot (write to path.tmp, fsync, rename): a crash
// mid-save leaves the previous checkpoint intact. Node and edge
// features are dataset state, not parameters, and are excluded.
func (m *Model) SaveParams(path string) error {
	return m.SaveParamsFS(checkpoint.OS{}, path)
}

// SaveParamsFS is SaveParams over an injectable file system (fault
// tests drive it through internal/faultfs).
func (m *Model) SaveParamsFS(fsys checkpoint.FS, path string) error {
	return checkpoint.WriteFS(fsys, path, paramsVersion, func(w io.Writer) error {
		ps := m.Params()
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(ps)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		for _, p := range ps {
			if _, err := p.WriteTo(w); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadParams reads parameters written by SaveParams into the model.
// The architecture (and hence the parameter list) must match. The load
// is all-or-nothing: every tensor is parsed and shape-checked before
// the first one is applied, so a corrupt or mismatched checkpoint
// leaves the model's parameters untouched. Only enveloped, checksummed
// checkpoints load; a file without the envelope is
// checkpoint.ErrNotCheckpoint. The tensors are overwritten in place, so
// load before building an engine over the model; a served model takes
// new params as a new model (WithParams).
func (m *Model) LoadParams(path string) error {
	sp, err := m.ParseParamsFS(checkpoint.OS{}, path)
	if err != nil {
		return err
	}
	copyParams(m.Params(), sp.tensors)
	return nil
}

// StagedParams is a fully parsed and shape-validated parameter
// checkpoint that no model holds yet: the file is parsed once, with
// nothing locked, and only when it validates is a model built over it
// (WithParams).
type StagedParams struct {
	tensors []*tensor.Tensor
}

// parseParamStream reads and validates a parameter stream against m's
// architecture without touching m.
func (m *Model) parseParamStream(r io.Reader) (*StagedParams, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(hdr[:])
	ps := m.Params()
	if int(count) != len(ps) {
		return nil, fmt.Errorf("tgat: checkpoint has %d tensors, model expects %d", count, len(ps))
	}
	staged := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		var t tensor.Tensor
		if _, err := t.ReadFrom(br); err != nil {
			return nil, fmt.Errorf("tgat: reading tensor %d: %w", i, err)
		}
		if !t.SameShape(p) {
			return nil, fmt.Errorf("tgat: tensor %d shape %v, model expects %v", i, t.Shape(), p.Shape())
		}
		staged[i] = &t
	}
	return &StagedParams{tensors: staged}, nil
}

// ParseParamsFS reads and fully validates a parameter checkpoint
// (envelope, checksum, tensor count, shapes) against m's architecture
// WITHOUT applying it. A nil error means WithParams cannot fail, so a
// swap that parses first is all-or-nothing.
func (m *Model) ParseParamsFS(fsys checkpoint.FS, path string) (*StagedParams, error) {
	var sp *StagedParams
	err := checkpoint.ReadFS(fsys, path, func(version uint32, r io.Reader) error {
		if version != paramsVersion {
			return fmt.Errorf("tgat: checkpoint version %d, model reads %d", version, paramsVersion)
		}
		var perr error
		sp, perr = m.parseParamStream(r)
		return perr
	})
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// WithParams returns a new model with m's architecture and feature
// tables (shared) holding the staged parameters, named version. m is
// untouched: a params swap builds the new version beside the one
// serving and publishes it whole.
func (m *Model) WithParams(sp *StagedParams, version uint64) *Model {
	c, err := NewModel(m.Cfg, m.NodeFeat, m.EdgeFeat)
	if err != nil {
		panic("tgat: a built model's config no longer validates: " + err.Error())
	}
	copyParams(c.Params(), sp.tensors)
	c.version = version
	return c
}

// Version returns the version of the parameters the model holds: 0
// unless WithParams named another.
func (m *Model) Version() uint64 { return m.version }

// Clone returns a model with the same architecture and feature tables
// (shared — they are immutable dataset state) but private copies of
// every trainable parameter, initialized to m's current values. The
// background fine-tuner trains a clone so the serving model's tensors
// are never written.
func (m *Model) Clone() *Model { return m.WithParams(&StagedParams{tensors: m.Params()}, 0) }

// copyParams copies src's tensors into dst's, index by index.
func copyParams(dst, src []*tensor.Tensor) {
	for i, p := range dst {
		p.CopyFrom(src[i])
	}
}
