package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/shard"
	"tgopt/internal/tgat"
	"tgopt/internal/trainer"
)

// Config is every serving knob in one value, the way core.Options is
// every engine knob. NewFromConfig validates it before it builds
// anything, and /v1/stats reports it back.
type Config struct {
	// Engine is every engine's option set; a pool divides its cache
	// limit across the shards.
	Engine core.Options
	// Config is the compute plane: Shards, the snapshot location
	// CacheFile (a file, or a directory when Shards > 1), Logf, and the
	// test seams FS and WrapEmbedder.
	shard.Config
	// Limits bounds request handling (middleware.go).
	Limits Limits
	// SnapshotInterval is the background snapshot cadence to
	// CacheFile; 0 saves only at stop.
	SnapshotInterval time.Duration
	// Swap configures the online-learning loop (swap.go).
	Swap SwapConfig
}

// DefaultConfig is tgopt-serve's configuration before its flags. Each
// serving default is written here and nowhere else.
func DefaultConfig() Config {
	tcfg := trainer.DefaultConfig()
	tcfg.Epochs = 1
	return Config{
		Engine: core.OptAll(),
		Config: shard.Config{Shards: 1},
		Limits: Limits{Timeout: 30 * time.Second, MaxInFlight: 256},
		Swap:   SwapConfig{Trainer: tcfg},
	}
}

// Validate reports the first value no server can run with, naming its
// field.
func (c Config) Validate() error {
	for _, r := range []struct {
		bad         bool
		field, want string
		v           any
	}{
		{c.Shards < 1, "Shards", "want >= 1", c.Shards},
		{c.Engine.CacheLimit < 0, "Engine.CacheLimit", "want >= 0 (0: the engine's default)", c.Engine.CacheLimit},
		{c.Limits.Timeout < 0, "Limits.Timeout", "want >= 0 (0: no deadline)", c.Limits.Timeout},
		{c.Limits.MaxInFlight < 0, "Limits.MaxInFlight", "want >= 0 (0: unlimited)", c.Limits.MaxInFlight},
		{c.SnapshotInterval < 0, "SnapshotInterval", "want >= 0", c.SnapshotInterval},
		{c.SnapshotInterval > 0 && c.CacheFile == "", "SnapshotInterval", "needs CacheFile", c.SnapshotInterval},
		{c.Swap.Interval < 0, "Swap.Interval", "want >= 0", c.Swap.Interval},
		{c.Swap.Interval > 0 && c.Swap.Dir == "", "Swap.Interval", "needs Swap.Dir", c.Swap.Interval},
		{c.Swap.Train && c.Swap.Dir == "", "Swap.Train", "needs Swap.Dir", c.Swap.Train},
		{c.Swap.Train && c.Swap.Trainer.Epochs < 1, "Swap.Trainer.Epochs", "want >= 1", c.Swap.Trainer.Epochs},
	} {
		if r.bad {
			return fmt.Errorf("serve: config %s = %v: %s", r.field, r.v, r.want)
		}
	}
	return nil
}

// NewFromConfig builds a server over a model and a (possibly
// pre-populated) dynamic graph: one shard.Core over the graph, or a
// shard.Router of cfg.Shards cores over it. A bad cfg is refused before
// anything is built.
func NewFromConfig(model *tgat.Model, dyn *graph.Dynamic, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Config = cfg.Config.WithDefaults()
	s := &Server{dyn: dyn, cfg: cfg, wire: newRowTextMemo(model.Cfg.NodeDim)}
	if cfg.Limits.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.Limits.MaxInFlight)
	}
	p, err := s.build(model)
	if err != nil {
		return nil, err
	}
	s.cur.Store(p)
	return s, nil
}

// Start warm-starts from CacheFile, marks /readyz ready, and starts the
// snapshotter and the swap loop, each only for a positive interval.
// Call stop once the HTTP server has drained: it stops the swap loop,
// so no swap lands before the final save, then the snapshotter, then
// saves to CacheFile (returning that error) and stops restarts (Close).
func (s *Server) Start() (stop func() error) {
	if s.cfg.CacheFile != "" {
		gate := s.dyn.Gate()
		gate.RLock()
		s.warmStart(s.cur.Load().backend)
		gate.RUnlock()
	}
	s.ready.Store(true)
	stopSnapshots, stopSwaps := func() {}, func() {}
	if s.cfg.SnapshotInterval > 0 {
		stopSnapshots = every(s.cfg.SnapshotInterval, s.snapshotTick)
	}
	if s.cfg.Swap.Interval > 0 {
		stopSwaps = every(s.cfg.Swap.Interval, s.swapTick)
	}
	return func() error {
		stopSwaps()
		stopSnapshots()
		defer s.Close()
		if s.cfg.CacheFile == "" {
			return nil
		}
		if err := s.SaveSnapshot(); err != nil {
			return err
		}
		s.cfg.Logf("saved %d memoized embeddings to %s", s.CacheLen(), s.cfg.CacheFile)
		return nil
	}
}

// configStats is the /v1/stats "config" section: the value of every
// serving knob the server runs with, durations in milliseconds.
type configStats struct {
	Engine             core.Options `json:"engine"`
	Shards             int          `json:"shards"`
	TimeoutMs          float64      `json:"timeout_ms"`
	MaxInFlight        int          `json:"max_inflight"`
	CacheFile          string       `json:"cache_file"`
	SnapshotIntervalMs float64      `json:"snapshot_interval_ms"`
	SwapDir            string       `json:"swap_dir"`
	SwapIntervalMs     float64      `json:"swap_interval_ms"`
	SwapTrain          bool         `json:"swap_train"`
	SwapEpochs         int          `json:"swap_epochs"`
}

func (c Config) stats() configStats {
	return configStats{c.Engine, c.Shards, ms(c.Limits.Timeout), c.Limits.MaxInFlight,
		c.CacheFile, ms(c.SnapshotInterval), c.Swap.Dir, ms(c.Swap.Interval), c.Swap.Train,
		c.Swap.Trainer.Epochs}
}

// String renders the configuration as /v1/stats' "config" section does,
// on one line.
func (c Config) String() string {
	b, err := json.Marshal(c.stats())
	if err != nil {
		return err.Error()
	}
	return string(b)
}
