package serve

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/swap"
)

// TestConfigValidate: every value no server can run with is refused
// before anything is built, and the error names its field.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"SnapshotInterval", func(c *Config) { c.SnapshotInterval = time.Second }}, // no CacheFile
		{"SnapshotInterval", func(c *Config) { c.CacheFile, c.SnapshotInterval = "f", -time.Second }},
		{"Swap.Interval", func(c *Config) { c.Swap.Interval = time.Second }}, // no Swap.Dir
		{"Swap.Interval", func(c *Config) { c.Swap.Dir, c.Swap.Interval = "d", -time.Second }},
		{"Swap.Train", func(c *Config) { c.Swap.Train = true }}, // no Swap.Dir
		{"Swap.Trainer.Epochs", func(c *Config) { c.Swap.Dir, c.Swap.Train, c.Swap.Trainer.Epochs = "d", true, 0 }},
		{"Shards", func(c *Config) { c.Shards = 0 }},
		{"Limits.MaxInFlight", func(c *Config) { c.Limits.MaxInFlight = -1 }},
		{"Limits.Timeout", func(c *Config) { c.Limits.Timeout = -time.Second }},
		{"Batch.MaxBatch", func(c *Config) { c.Batch.MaxBatch = 0 }},
		{"Batch.MaxBatch", func(c *Config) { c.Batch.MaxBatch = -3 }},
		{"Batch.Window", func(c *Config) { c.Batch.Window = -time.Millisecond }},
		{"Engine.CacheLimit", func(c *Config) { c.Engine.CacheLimit = -1 }},
	} {
		cfg := DefaultConfig()
		tc.set(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want an error naming the field", tc.field, err)
		}
		m, dyn := testModelDyn(t)
		if s, err := NewFromConfig(m, dyn, cfg); s != nil || err == nil {
			t.Errorf("%s: NewFromConfig built a server", tc.field)
		}
	}
}

// TestConfigStringIsStatsSection: the one-line rendering is the
// /v1/stats "config" section, and the cache policy reads as its name.
func TestConfigStringIsStatsSection(t *testing.T) {
	_, ts := testServerWith(t, func(c *Config) { c.Engine.CachePolicy = core.CacheFIFO })
	var st map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/stats", &st)
	cfg := testConfig()
	cfg.Engine.CachePolicy = core.CacheFIFO
	if got := strings.TrimSpace(string(st["config"])); got != cfg.String() {
		t.Fatalf("/v1/stats config %s, String %s", got, cfg.String())
	}
	if !strings.Contains(cfg.String(), `"cache_policy":"fifo"`) {
		t.Fatalf("policy not rendered by name: %s", cfg)
	}
}

// TestServeZeroSwapIntervalRunsNoLoop: a swap directory with a zero
// interval starts no loop — a version published after Start is never
// picked up — and Start does not panic on the zero interval.
func TestServeZeroSwapIntervalRunsNoLoop(t *testing.T) {
	dir := t.TempDir()
	s, _ := testServerWith(t, func(c *Config) { c.Swap.Dir = dir })
	stop := s.Start()
	if err := swap.Publish(checkpoint.OS{}, dir, swapSeedModel(t, 9), 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if v := s.ModelVersion(); v != 0 {
		t.Fatalf("version %d after a publish with no swap loop, want 0", v)
	}
}
