package core

import (
	"testing"

	"tgopt/internal/tgat"
)

// TestEngineConcurrentStreamMatchesSerial drives the TGOpt engine (with
// its shared concurrent cache) through the batch-parallel inference
// driver and demands identical scores to the sequential pass.
func TestEngineConcurrentStreamMatchesSerial(t *testing.T) {
	ds, m, s := engineTestSetup(t, 600)
	serial := tgat.StreamInference(ds.Graph, m, 100, m.BaselineEmbedFunc(s))
	eng := NewEngine(m, s, OptAll())
	conc := tgat.StreamInferenceArenaScored(ds.Graph, m, 100, 4, eng.EmbedWith, eng)
	for i := range serial.Scores {
		d := serial.Scores[i] - conc.Scores[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-5 {
			t.Fatalf("score %d differs by %g under concurrent TGOpt", i, d)
		}
	}
	if eng.CacheLen() == 0 {
		t.Fatal("concurrent pass cached nothing")
	}
}
