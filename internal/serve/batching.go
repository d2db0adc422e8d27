package serve

import (
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/stats"
)

// batchTotals is one scrape's view of the serving version's live
// batchers: counters summed over cores, occupancy and queue wait merged
// bucket by bucket.
type batchTotals struct {
	batcher.Snapshot
	occupancy stats.CountHistogram
	queueWait stats.Histogram
}

// newBatchTotals returns nil while batching is off.
func newBatchTotals(b backend) *batchTotals {
	bs := b.Batchers()
	if len(bs) == 0 {
		return nil
	}
	t := &batchTotals{}
	for _, b := range bs {
		t.Add(b.Stats())
		t.occupancy.Merge(b.Occupancy())
		t.queueWait.Merge(b.QueueWait())
	}
	return t
}

// batchStats is the JSON rendering of the batchers' state on
// /v1/stats; their window and size trigger are in its "config".
type batchStats struct {
	Enqueued      int64   `json:"enqueued"`
	Coalesced     int64   `json:"coalesced"`
	CoalesceRatio float64 `json:"coalesce_ratio"`
	Batches       int64   `json:"batches"`
	FlushSize     int64   `json:"flush_size"`
	FlushWindow   int64   `json:"flush_window"`
	FlushIdle     int64   `json:"flush_idle"`
	FlushDrain    int64   `json:"flush_drain"`
	Panics        int64   `json:"panics"`
	OccupancyMean float64 `json:"occupancy_mean"`
	OccupancyP50  int64   `json:"occupancy_p50"`
	OccupancyP99  int64   `json:"occupancy_p99"`
	QueueWaitP50  float64 `json:"queue_wait_p50_us"`
	QueueWaitP99  float64 `json:"queue_wait_p99_us"`
}

// json renders the totals for /v1/stats, nil when batching is off.
func (t *batchTotals) json() *batchStats {
	if t == nil {
		return nil
	}
	return &batchStats{
		Enqueued:      t.Enqueued,
		Coalesced:     t.Coalesced,
		CoalesceRatio: t.CoalesceRatio(),
		Batches:       t.Batches,
		FlushSize:     t.FlushSize,
		FlushWindow:   t.FlushWindow,
		FlushIdle:     t.FlushIdle,
		FlushDrain:    t.FlushDrain,
		Panics:        t.Panics,
		OccupancyMean: t.occupancy.Mean(),
		OccupancyP50:  t.occupancy.Quantile(0.5),
		OccupancyP99:  t.occupancy.Quantile(0.99),
		QueueWaitP50:  float64(t.queueWait.Quantile(0.5)) / float64(time.Microsecond),
		QueueWaitP99:  float64(t.queueWait.Quantile(0.99)) / float64(time.Microsecond),
	}
}
