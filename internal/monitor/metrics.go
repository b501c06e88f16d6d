package monitor

import (
	"sync/atomic"
	"time"
)

// IngestMetrics is the counter set exported by the batched ingestion
// pipeline (engine workers, sketchd, expdriver). All fields are updated
// with atomics so the hot path never takes a lock; Snapshot assembles a
// consistent-enough view for dashboards and /stats.
type IngestMetrics struct {
	start time.Time

	// UpdatesEnqueued counts stream elements accepted into the pipeline.
	UpdatesEnqueued atomic.Int64
	// UpdatesApplied counts stream elements folded into synopses.
	UpdatesApplied atomic.Int64
	// Batches counts applied batches; together with UpdatesApplied it
	// yields the mean batch fill.
	Batches atomic.Int64
	// QueueDepth is the number of batch items currently sitting in worker
	// queues (a gauge: incremented on enqueue, decremented on apply).
	QueueDepth atomic.Int64
	// Flushes counts pipeline drain barriers (explicit Flush calls plus
	// the implicit quiesce before every query/snapshot/stats read).
	Flushes atomic.Int64
	// Rejected counts ingest requests (an HTTP /update or an SKSP DATA
	// frame, whatever its element count) refused instead of being
	// enqueued, one per refusal: full ingest queues or a tenant over its
	// queue-share quota — every 429 and REJECT sketchd sends.
	Rejected atomic.Int64
}

// NewIngestMetrics returns a zeroed metric set with the rate clock
// started now.
func NewIngestMetrics() *IngestMetrics {
	return &IngestMetrics{start: time.Now()}
}

// IngestSnapshot is a point-in-time copy of the counters plus derived
// rates.
type IngestSnapshot struct {
	UpdatesEnqueued int64   `json:"updatesEnqueued"`
	UpdatesApplied  int64   `json:"updatesApplied"`
	Batches         int64   `json:"batches"`
	QueueDepth      int64   `json:"queueDepth"`
	Flushes         int64   `json:"flushes"`
	Rejected        int64   `json:"rejected"`
	AvgBatchFill    float64 `json:"avgBatchFill"`
	UpdatesPerSec   float64 `json:"updatesPerSec"`
	ElapsedSeconds  float64 `json:"elapsedSeconds"`
}

// Snapshot returns the current counter values and the derived mean batch
// fill and lifetime updates/sec rate.
func (m *IngestMetrics) Snapshot() IngestSnapshot {
	s := IngestSnapshot{
		UpdatesEnqueued: m.UpdatesEnqueued.Load(),
		UpdatesApplied:  m.UpdatesApplied.Load(),
		Batches:         m.Batches.Load(),
		QueueDepth:      m.QueueDepth.Load(),
		Flushes:         m.Flushes.Load(),
		Rejected:        m.Rejected.Load(),
	}
	if s.Batches > 0 {
		s.AvgBatchFill = float64(s.UpdatesApplied) / float64(s.Batches)
	}
	s.ElapsedSeconds = time.Since(m.start).Seconds()
	if s.ElapsedSeconds > 0 {
		s.UpdatesPerSec = float64(s.UpdatesApplied) / s.ElapsedSeconds
	}
	return s
}
