package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"skimsketch/internal/monitor"
	"skimsketch/internal/stream"
)

// The batched ingestion pipeline: N shard workers, each owning a disjoint
// subset of the engine's synopses (hash on the synopsis id), fed by
// bounded channels. A batch for stream S is fanned out to every shard
// holding a synopsis over S; the send blocks when a worker queue is full,
// which is the pipeline's backpressure. Because each synopsis belongs to
// exactly one shard, workers never write the same counters and can apply
// concurrently under a shared (read) apply lock; readers take the
// exclusive side, so a query never observes a half-applied batch.
//
// The pipeline is shared by every tenant: batches are routed on
// (tenant, stream) and a tenant's queue share is metered by its pending-
// update count, admission-checked against Quota.MaxPendingUpdates — so
// thousands of small tenants ride one worker pool without one of them
// starving the rest.
//
// Consistency contract: the fan-out of one batch happens atomically under
// ing.fanMu (read side). Readers quiesce by taking ing.fanMu exclusively,
// draining every worker queue with a barrier, and only then reading under
// the exclusive apply lock — so every batch is observed either fully
// applied to all of its stream's synopses or not at all, never torn
// across synopses or tables.

// IngestConfig tunes the concurrent ingestion pipeline.
type IngestConfig struct {
	// Workers is the number of shard workers. <= 0 defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// BatchSize is the maximum number of updates per queued batch; larger
	// IngestBatch calls are split on BatchSize boundaries. <= 0 defaults
	// to 256.
	BatchSize int
	// QueueDepth is each worker's queue capacity in batches; a full queue
	// blocks producers (backpressure). <= 0 defaults to 64.
	QueueDepth int
}

func (c *IngestConfig) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
}

// ingestItem is one unit of worker work: apply batch to entries (all
// owned by the receiving worker's shard). A barrier item instead signals
// the WaitGroup, implementing Flush.
type ingestItem struct {
	entries []*synEntry
	batch   []stream.Update
	// count is the number of elements this item accounts for in the
	// applied-updates metric and the owner tenant's pending gauge; only
	// one shard of a fan-out carries it, so elements are counted once
	// however many synopses they reach.
	count int
	// tenant is the pending-gauge owner for count-carrying items.
	tenant  *tenantState
	barrier *sync.WaitGroup
	// done, when non-nil, is the refcount of an IngestGroups request with
	// a release callback; the worker drops one reference after the item's
	// batch has been folded into every entry.
	done *groupDone
}

// groupDone refcounts one IngestGroups request across the items it fans
// out to. refs starts at 1 (the creator's reference, dropped when the
// fan-out finishes enqueueing) and each queued item holds one more, so
// release fires exactly once, after every chunk of every group has been
// applied — at which point the engine no longer references the caller's
// update buffers and they may be reused.
type groupDone struct {
	refs    atomic.Int64
	release func()
}

func newGroupDone(release func()) *groupDone {
	d := &groupDone{release: release}
	d.refs.Store(1)
	return d
}

func (d *groupDone) add() { d.refs.Add(1) }

func (d *groupDone) done() {
	if d.refs.Add(-1) == 0 {
		d.release()
	}
}

type ingester struct {
	cfg   IngestConfig
	chans []chan ingestItem
	wg    sync.WaitGroup

	// fanMu makes the fan-out of one batch atomic with respect to
	// barriers: producers hold the read side across all shard sends;
	// Flush/quiesce/Stop hold the write side. closed is guarded by fanMu.
	fanMu  sync.RWMutex
	closed bool
}

// StartIngest launches the concurrent ingestion pipeline. Subsequent
// IngestBatch calls enqueue to the shard workers instead of applying
// synchronously. It fails if a pipeline is already running.
func (e *Engine) StartIngest(cfg IngestConfig) error {
	cfg.applyDefaults()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ing != nil {
		return fmt.Errorf("engine: ingest pipeline already running")
	}
	ing := &ingester{cfg: cfg, chans: make([]chan ingestItem, cfg.Workers)}
	for i := range ing.chans {
		ing.chans[i] = make(chan ingestItem, cfg.QueueDepth)
	}
	ing.wg.Add(cfg.Workers)
	for i := range ing.chans {
		go ing.worker(e, ing.chans[i])
	}
	e.ing = ing
	e.routes = nil // the shard count changed; rebuild routes lazily
	return nil
}

// StopIngest drains and shuts down the pipeline. Queued batches are fully
// applied before it returns; afterwards IngestBatch applies synchronously
// again. It is a no-op if no pipeline is running.
func (e *Engine) StopIngest() {
	e.mu.Lock()
	ing := e.ing
	e.ing = nil
	e.routes = nil
	e.mu.Unlock()
	if ing == nil {
		return
	}
	ing.fanMu.Lock()
	ing.closed = true
	for _, ch := range ing.chans {
		close(ch)
	}
	ing.fanMu.Unlock()
	ing.wg.Wait() // workers drain their queues before exiting
}

// worker applies queued batches to its shard's synopses. The shared
// (read) apply lock lets all workers run concurrently — their synopsis
// sets are disjoint — while excluding readers, which take the write side.
func (ing *ingester) worker(e *Engine, ch chan ingestItem) {
	defer ing.wg.Done()
	for item := range ch {
		if item.barrier != nil {
			item.barrier.Done()
			continue
		}
		e.applyMu.RLock()
		for _, en := range item.entries {
			en.updateBatch(item.batch)
		}
		e.applyMu.RUnlock()
		e.metrics.QueueDepth.Add(-1)
		if item.count > 0 {
			e.metrics.UpdatesApplied.Add(int64(item.count))
			item.tenant.pending.Add(-int64(item.count))
		}
		e.metrics.Batches.Add(1)
		if item.done != nil {
			item.done.done()
		}
	}
}

// barrierLocked drains every worker queue: the barrier items are FIFO
// behind all previously enqueued batches. Callers hold ing.fanMu
// exclusively, so no batch can be half-fanned-out across the barrier.
func (ing *ingester) barrierLocked() {
	var wg sync.WaitGroup
	wg.Add(len(ing.chans))
	for _, ch := range ing.chans {
		ch <- ingestItem{barrier: &wg}
	}
	wg.Wait()
}

// enqueue fans the batch out to the shards named by route, splitting it
// into BatchSize chunks. If the pipeline was stopped between routing and
// enqueueing, it falls back to a synchronous apply (settling the
// tenant's pending gauge itself). done, when non-nil, gains one
// reference per queued item (the worker drops it after applying); the
// synchronous fallback applies inline and so adds none.
func (ing *ingester) enqueue(e *Engine, ts *tenantState, route [][]*synEntry, updates []stream.Update, done *groupDone) {
	ing.fanMu.RLock()
	defer ing.fanMu.RUnlock()
	if ing.closed {
		e.applyMu.Lock()
		for _, entries := range route {
			for _, en := range entries {
				en.updateBatch(updates)
			}
		}
		e.applyMu.Unlock()
		e.metrics.UpdatesApplied.Add(int64(len(updates)))
		ts.pending.Add(-int64(len(updates)))
		e.metrics.Batches.Add(1)
		return
	}
	bs := ing.cfg.BatchSize
	for off := 0; off < len(updates); off += bs {
		end := off + bs
		if end > len(updates) {
			end = len(updates)
		}
		chunk := updates[off:end]
		counted := false
		for shard, entries := range route {
			if len(entries) == 0 {
				continue
			}
			item := ingestItem{entries: entries, batch: chunk}
			if !counted {
				item.count = len(chunk)
				item.tenant = ts
				counted = true
			}
			if done != nil {
				done.add()
				item.done = done
			}
			e.metrics.QueueDepth.Add(1)
			ing.chans[shard] <- item
		}
		if !counted {
			// No synopsis anywhere listens to this stream: nothing will
			// apply the chunk, so settle its pending share immediately
			// (the applied-updates metric keeps its historical meaning of
			// "folded into at least one synopsis").
			ts.pending.Add(-int64(len(chunk)))
		}
	}
}

// StreamError is a validation refusal that names the stream group it
// concerns (unknown stream, value out of domain), so front ends can
// report which group failed without matching on message text.
type StreamError struct {
	Stream string
	Err    error
}

func (e *StreamError) Error() string { return e.Err.Error() }

func (e *StreamError) Unwrap() error { return e.Err }

// IngestBatch validates and ingests a batch of default-tenant updates
// for one stream. With a running pipeline (StartIngest) the batch is
// enqueued to the shard workers and applied asynchronously — a following
// Flush, Answer, Snapshot or Stats call observes it; a full queue blocks
// (backpressure). Without a pipeline it applies synchronously before
// returning. In both modes the result is bit-for-bit identical to
// calling Update once per element in order. Validation is synchronous:
// on error the whole batch is rejected and nothing is applied.
func (e *Engine) IngestBatch(streamName string, updates []stream.Update) error {
	return e.Tenant(DefaultTenant).IngestBatch(streamName, updates)
}

// IngestBatch is Engine.IngestBatch scoped to this tenant. On top of the
// validation contract it enforces the tenant's queue-share quota: with a
// running pipeline, a batch that would push the tenant's pending-update
// count past Quota.MaxPendingUpdates is rejected with an error wrapping
// ErrQuotaExceeded, and nothing is applied or enqueued.
func (t *Tenant) IngestBatch(streamName string, updates []stream.Update) error {
	if len(updates) == 0 {
		return nil
	}
	return t.IngestGroups([]stream.Group{{Name: streamName, Updates: updates}}, nil)
}

// IngestGroups validates and ingests a multi-stream request of
// default-tenant update groups; see Tenant.IngestGroups.
func (e *Engine) IngestGroups(groups []stream.Group, release func()) error {
	return e.Tenant(DefaultTenant).IngestGroups(groups, release)
}

// IngestGroups validates and ingests one multi-stream request
// atomically: every group is validated (stream declared, values in
// domain) and the tenant's queue-share quota is checked against the
// request's SUMMED update count before anything is admitted. On error
// nothing has been applied, enqueued, or counted — a quota rejection
// (wrapping ErrQuotaExceeded) therefore really means "retry the whole
// request", never "part of it landed". A validation refusal is a
// *StreamError naming the first failing group.
//
// release, when non-nil, transfers buffer ownership: on a nil return
// the engine references the groups' Updates slices until every element
// has been folded into every listening synopsis, and then calls release
// exactly once — after which the caller may reuse the buffers. On a
// non-nil return the engine retains nothing and release is never
// called. A nil release keeps IngestBatch's historical contract (the
// caller must not reuse the slices).
func (t *Tenant) IngestGroups(groups []stream.Group, release func()) error {
	total := 0
	for i := range groups {
		total += len(groups[i].Updates)
	}
	if total == 0 {
		if release != nil {
			release()
		}
		return nil
	}
	e := t.e
	e.mu.Lock()
	for i := range groups {
		info, ok := e.streams[nsKey{t.name, groups[i].Name}]
		if !ok {
			e.mu.Unlock()
			return &StreamError{groups[i].Name, fmt.Errorf("engine: unknown stream %q", groups[i].Name)}
		}
		if err := stream.Validate(groups[i].Updates, info.domain); err != nil {
			e.mu.Unlock()
			return &StreamError{groups[i].Name, fmt.Errorf("engine: stream %q: %w", groups[i].Name, err)}
		}
	}
	ing := e.ing
	shards := 1
	if ing != nil {
		shards = len(ing.chans)
	}
	ts := e.tenantLocked(t.name)
	if ing != nil {
		if max := ts.quota.MaxPendingUpdates; max > 0 {
			if pend := ts.pending.Load(); pend+int64(total) > max {
				// The tenant counts refused updates; the engine-wide
				// counter counts refused requests, like NoteRejected.
				ts.rejected.Add(int64(total))
				e.metrics.Rejected.Add(1)
				e.mu.Unlock()
				return fmt.Errorf("engine: tenant %q: %d pending + %d batched updates over queue-share quota %d: %w",
					t.name, pend, total, max, ErrQuotaExceeded)
			}
		}
	}
	// Admission is now certain: capture routes and bump counters for every
	// group under the same e.mu hold, so no concurrent request can wedge
	// between the groups of this one.
	var stackRoutes [4][][]*synEntry
	routes := stackRoutes[:0]
	for i := range groups {
		routes = append(routes, e.routeLocked(t.name, groups[i].Name, shards))
		e.streams[nsKey{t.name, groups[i].Name}].count += int64(len(groups[i].Updates))
	}
	e.metrics.UpdatesEnqueued.Add(int64(total))
	if ing == nil {
		// Synchronous path: apply inline under the exclusive apply lock,
		// with e.mu held like Update.
		e.applyMu.Lock()
		for i := range groups {
			for _, en := range routes[i][0] {
				en.updateBatch(groups[i].Updates)
			}
		}
		e.applyMu.Unlock()
		e.metrics.UpdatesApplied.Add(int64(total))
		e.metrics.Batches.Add(int64(len(groups)))
		e.mu.Unlock()
		if release != nil {
			release()
		}
		return nil
	}
	ts.pending.Add(int64(total))
	e.mu.Unlock()
	var done *groupDone
	if release != nil {
		done = newGroupDone(release)
	}
	for i := range groups {
		ing.enqueue(e, ts, routes[i], groups[i].Updates, done)
	}
	if done != nil {
		done.done() // drop the creator reference
	}
	return nil
}

// Flush blocks until every batch enqueued before the call is fully
// applied. It is a no-op without a running pipeline.
func (e *Engine) Flush() {
	e.mu.Lock()
	ing := e.ing
	e.mu.Unlock()
	if ing == nil {
		return
	}
	ing.fanMu.Lock()
	if !ing.closed {
		ing.barrierLocked()
		e.metrics.Flushes.Add(1)
	}
	ing.fanMu.Unlock()
}

// routeLocked returns the per-shard synopsis lists for a tenant's
// stream, computing and caching them on first use. The cache is
// invalidated whenever the synopsis set or the shard count changes.
// Callers hold e.mu.
func (e *Engine) routeLocked(tenant, streamName string, shards int) [][]*synEntry {
	if e.routes == nil || e.routesShards != shards {
		e.routes = make(map[nsKey][][]*synEntry)
		e.routesShards = shards
	}
	key := nsKey{tenant, streamName}
	if r, ok := e.routes[key]; ok {
		return r
	}
	r := make([][]*synEntry, shards)
	for _, en := range e.synopses {
		if en.key.tenant == tenant && en.key.stream == streamName {
			s := en.id % shards
			r[s] = append(r[s], en)
		}
	}
	e.routes[key] = r
	return r
}

// IngestSaturated reports whether the ingestion pipeline is running and
// at least one shard queue is full. It is an admission-control probe for
// load shedding: a server that checks it before enqueueing can return
// 429 instead of blocking on a full queue. The answer is advisory — a
// racing producer can fill (or a worker drain) a queue immediately after
// the probe — so an admitted batch may still block briefly; what the
// probe guarantees is that a saturated pipeline is detected without
// touching the queues.
func (e *Engine) IngestSaturated() bool {
	e.mu.Lock()
	ing := e.ing
	e.mu.Unlock()
	if ing == nil {
		return false
	}
	for _, ch := range ing.chans {
		if len(ch) == cap(ch) {
			return true
		}
	}
	return false
}

// NoteRejected records n requests or frames refused for backpressure
// (the caller chose load shedding over blocking); every caller passes 1
// per refusal, whatever its element count. Surfaced via IngestStats.
func (e *Engine) NoteRejected(n int64) {
	e.metrics.Rejected.Add(n)
}

// IngestStats returns the ingestion pipeline counters (updates enqueued
// and applied, batches, mean batch fill, queue depth, flushes,
// backpressure rejections, and the lifetime updates/sec rate).
func (e *Engine) IngestStats() monitor.IngestSnapshot {
	return e.metrics.Snapshot()
}

// readQuiesce drains the pipeline (if running) and acquires the locks a
// consistent read needs: ing.fanMu exclusively (no batch mid-fan-out),
// e.mu (map state), and the exclusive side of applyMu (no worker
// mid-apply). The returned function releases everything.
func (e *Engine) readQuiesce() func() {
	e.mu.Lock()
	ing := e.ing
	e.mu.Unlock()
	if ing != nil {
		ing.fanMu.Lock()
		if !ing.closed {
			ing.barrierLocked()
			e.metrics.Flushes.Add(1)
		}
	}
	e.mu.Lock()
	e.applyMu.Lock()
	return func() {
		e.applyMu.Unlock()
		e.mu.Unlock()
		if ing != nil {
			ing.fanMu.Unlock()
		}
	}
}
