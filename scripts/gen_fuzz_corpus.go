//go:build ignore

// gen_fuzz_corpus regenerates the checked-in fuzz seed corpora under
// internal/*/testdata/fuzz: representative valid, truncated, and
// bit-flipped snapshot bytes for the persistence readers. Run from the
// repo root after changing a snapshot format:
//
//	go run scripts/gen_fuzz_corpus.go
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

func writeCorpus(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d payload bytes)\n", filepath.Join(dir, name), len(data))
}

func main() {
	// --- core: FuzzCacheReadFrom (cache blob bytes) ---
	c := core.NewCache(16, 3, 4)
	r := tensor.NewRNG(9)
	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	c.Store(keys, tensor.Rand(r, 8, 3))
	var v3 bytes.Buffer
	if _, err := c.WriteTo(&v3); err != nil {
		log.Fatal(err)
	}
	// The *-v2 files beside these hold the untagged TGC2 layout; they stay
	// in the corpus as inputs the reader refuses.
	coreDir := "internal/core/testdata/fuzz/FuzzCacheReadFrom"
	writeCorpus(coreDir, "valid-v3", v3.Bytes())
	writeCorpus(coreDir, "truncated-v3", v3.Bytes()[:v3.Len()/2])
	flipped := append([]byte(nil), v3.Bytes()...)
	flipped[len(flipped)/2] ^= 0x10
	writeCorpus(coreDir, "bitflip-v3", flipped)

	// --- tgat: FuzzLoadParams (full params checkpoint file bytes) ---
	cfg := tgat.Config{Layers: 1, Heads: 1, NodeDim: 4, EdgeDim: 4, TimeDim: 4, NumNeighbors: 2, Seed: 3}
	m, err := tgat.NewModel(cfg, tensor.New(3, 4), tensor.New(3, 4))
	if err != nil {
		log.Fatal(err)
	}
	tmp := filepath.Join(os.TempDir(), "gen-corpus-params.bin")
	defer os.Remove(tmp)
	if err := m.SaveParams(tmp); err != nil {
		log.Fatal(err)
	}
	params, err := os.ReadFile(tmp)
	if err != nil {
		log.Fatal(err)
	}
	tgatDir := "internal/tgat/testdata/fuzz/FuzzLoadParams"
	writeCorpus(tgatDir, "valid-v2", params)
	writeCorpus(tgatDir, "truncated-v2", params[:len(params)*2/3])
	pflip := append([]byte(nil), params...)
	pflip[len(pflip)-6] ^= 0x04
	writeCorpus(tgatDir, "bitflip-v2", pflip)

	// --- checkpoint: FuzzDecode (raw envelope bytes) ---
	env, err := checkpoint.Encode(1, func(w io.Writer) error {
		_, err := w.Write([]byte("corpus payload"))
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	ckDir := "internal/checkpoint/testdata/fuzz/FuzzDecode"
	writeCorpus(ckDir, "valid", env)
	writeCorpus(ckDir, "truncated", env[:len(env)-3])
}
