// Package swap implements the online-learning loop's publication side:
// versioned parameter snapshots in a swap directory, an atomically
// replaced CURRENT manifest naming the live version, and a background
// fine-tuner that trains a private clone of the serving model on the
// watermarked prefix of the live edge stream.
//
// Layout of a swap directory:
//
//	params-<version>.tgp   parameter checkpoints (tgat.SaveParamsFS)
//	CURRENT                manifest: the version to serve
//
// Both go through the checkpoint envelope (CRC-checked, atomically
// replaced), so a crash mid-publish leaves the previous version
// intact and a torn manifest is detected, never half-read. Publishers
// write the params file BEFORE the manifest; consumers read the
// manifest and then open the file it names, so the manifest never
// points at a file that was not fully durable first. See DESIGN.md
// §15.
package swap

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"tgopt/internal/checkpoint"
	"tgopt/internal/graph"
	"tgopt/internal/tgat"
	"tgopt/internal/trainer"
)

// manifestVersion is the envelope version of the CURRENT manifest (an
// 8-byte little-endian model version).
const manifestVersion uint32 = 1

// ManifestName is the manifest file's name inside a swap directory.
const ManifestName = "CURRENT"

// ParamsPath returns the checkpoint path for a model version inside a
// swap directory.
func ParamsPath(dir string, version uint64) string {
	return filepath.Join(dir, fmt.Sprintf("params-%d.tgp", version))
}

// Publish writes m's parameters as the given version and flips the
// CURRENT manifest to it. The params file lands (atomically, fsynced)
// before the manifest is replaced, so a consumer that reads the new
// manifest always finds a complete checkpoint behind it; a crash
// between the two writes leaves the previous version current and the
// orphaned params file harmless.
func Publish(fsys checkpoint.FS, dir string, m *tgat.Model, version uint64) error {
	if fsys == nil {
		fsys = checkpoint.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("swap: creating swap dir: %w", err)
	}
	if err := m.SaveParamsFS(fsys, ParamsPath(dir, version)); err != nil {
		return fmt.Errorf("swap: writing params v%d: %w", version, err)
	}
	return WriteManifest(fsys, dir, version)
}

// WriteManifest flips the CURRENT manifest to version without writing
// a params file — the commit half of Publish, exposed for tests and
// for republishing an existing version.
func WriteManifest(fsys checkpoint.FS, dir string, version uint64) error {
	if fsys == nil {
		fsys = checkpoint.OS{}
	}
	err := checkpoint.WriteFS(fsys, filepath.Join(dir, ManifestName), manifestVersion, func(w io.Writer) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], version)
		_, werr := w.Write(buf[:])
		return werr
	})
	if err != nil {
		return fmt.Errorf("swap: writing manifest: %w", err)
	}
	return nil
}

// Latest reads the CURRENT manifest and returns the published version
// and its params path. A missing manifest surfaces the underlying
// fs.ErrNotExist (callers treat it as "nothing published yet"); a
// corrupt one is an error.
func Latest(fsys checkpoint.FS, dir string) (version uint64, path string, err error) {
	if fsys == nil {
		fsys = checkpoint.OS{}
	}
	err = checkpoint.ReadFS(fsys, filepath.Join(dir, ManifestName), func(v uint32, r io.Reader) error {
		if v != manifestVersion {
			return fmt.Errorf("swap: manifest version %d", v)
		}
		var buf [8]byte
		if _, rerr := io.ReadFull(r, buf[:]); rerr != nil {
			return rerr
		}
		version = binary.LittleEndian.Uint64(buf[:])
		return nil
	})
	if err != nil {
		return 0, "", err
	}
	return version, ParamsPath(dir, version), nil
}

// FineTune trains a private clone of m on the watermarked prefix of
// dyn's edge stream and returns the clone. Only edges at or before the
// watermark participate: later ones may still be reordered by late
// arrivals inside the lateness window, and training on a prefix that
// later rewrites would bake unstable history into the parameters. m's
// own tensors are never touched: the caller publishes the clone, and a
// server swaps to it by building a new model over the published file
// (tgat.Model.WithParams), never by writing m.
func FineTune(m *tgat.Model, dyn *graph.Dynamic, cfg trainer.Config) (*tgat.Model, *trainer.Result, error) {
	edges := dyn.Edges()
	wm := dyn.Watermark()
	n := sort.Search(len(edges), func(i int) bool { return edges[i].Time > wm })
	if n < 2 {
		return nil, nil, fmt.Errorf("swap: watermarked prefix has %d edges, need >= 2", n)
	}
	g, err := graph.NewGraph(dyn.NumNodes(), edges[:n:n])
	if err != nil {
		return nil, nil, fmt.Errorf("swap: building training graph: %w", err)
	}
	clone := m.Clone()
	s := graph.NewSampler(g, clone.Cfg.NumNeighbors, graph.MostRecent, cfg.Seed)
	res, err := trainer.Train(clone, g, s, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("swap: fine-tune: %w", err)
	}
	return clone, res, nil
}
