package loadtest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skimsketch/internal/stream"
	wclient "skimsketch/internal/wire/client"
	"skimsketch/internal/workload"
)

// Ingest protocols the harness can drive. Setup, flush, and /stats
// reconciliation always ride HTTP — only the hot batch path switches.
const (
	// ProtoJSON is the JSON-over-HTTP /update path (the default).
	ProtoJSON = "json"
	// ProtoSkimp is the SKSP binary streaming protocol (docs/FORMATS.md):
	// persistent connections, length-prefixed CRC'd frames, idempotent
	// replay. Requires Config.StreamAddr.
	ProtoSkimp = "skimp"
)

// Config tunes one harness run. The zero value is not runnable; see
// (*Config).applyDefaults for what the knobs default to.
type Config struct {
	// BaseURL is the sketchd root URL.
	BaseURL string `json:"baseURL"`
	// Streams are the target stream names; batches round-robin across
	// them. They must already be declared (Run does not declare streams:
	// setup belongs to the caller, which knows whether the server is
	// fresh).
	Streams []string `json:"streams"`
	// Shape is the key distribution (workload.ParseShape syntax) and
	// Domain its value range; Seed makes the stream reproducible.
	Shape  string `json:"shape"`
	Domain uint64 `json:"domain"`
	Seed   int64  `json:"seed"`

	// Tenants fans the run out across this many tenant namespaces
	// (TenantNames). Each batch's tenant is drawn from the same seeded
	// workload shape as the values (offset seed), so the per-tenant load
	// split is reproducible and — with a skewed shape — deliberately
	// unequal, like real multi-tenant traffic. 0 or 1 keeps the whole
	// run on the flat default-tenant API, byte-identical to the
	// pre-tenant harness. Streams and queries must already be declared
	// per tenant (cmd/loadgen -declare does this).
	Tenants int `json:"tenants,omitempty"`

	// Rate is the open-loop arrival rate in updates/sec fed through a
	// token bucket of one batch; 0 means unpaced (generate as fast as the
	// queue accepts).
	Rate float64 `json:"rate"`

	// Workers is the number of concurrent ingest workers, Batch the
	// updates per request, QueueDepth the bounded buffer (in batches)
	// between the arrival process and the workers. When the queue is
	// full the arrival process sheds the batch client-side (open loop:
	// arrivals never slow down, the shed count is reported).
	Workers    int `json:"workers"`
	Batch      int `json:"batch"`
	QueueDepth int `json:"queueDepth"`

	// Duration bounds the run in time; TotalUpdates bounds it in volume.
	// Whichever is reached first stops the arrival process (0 disables
	// that bound; at least one must be set).
	Duration     time.Duration `json:"duration"`
	TotalUpdates int64         `json:"totalUpdates"`

	// Proto selects the ingest wire protocol: ProtoJSON (default) or
	// ProtoSkimp. StreamAddr is the sketchd -listen.stream host:port,
	// required for ProtoSkimp.
	Proto      string `json:"proto,omitempty"`
	StreamAddr string `json:"streamAddr,omitempty"`

	// Client carries the HTTP transport and 429 backoff policy.
	Client Client `json:"-"`
}

func (c *Config) applyDefaults() error {
	if c.BaseURL == "" && c.Client.BaseURL == "" {
		return fmt.Errorf("loadtest: BaseURL required")
	}
	if c.Client.BaseURL == "" {
		c.Client.BaseURL = c.BaseURL
	}
	if c.BaseURL == "" {
		c.BaseURL = c.Client.BaseURL
	}
	if len(c.Streams) == 0 {
		return fmt.Errorf("loadtest: at least one target stream required")
	}
	if c.Shape == "" {
		c.Shape = "zipf:1.0"
	}
	if c.Domain == 0 {
		c.Domain = 1 << 16
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Duration <= 0 && c.TotalUpdates <= 0 {
		return fmt.Errorf("loadtest: set Duration or TotalUpdates")
	}
	switch c.Proto {
	case "":
		c.Proto = ProtoJSON
	case ProtoJSON:
	case ProtoSkimp:
		if c.StreamAddr == "" {
			return fmt.Errorf("loadtest: proto %q requires StreamAddr", ProtoSkimp)
		}
	default:
		return fmt.Errorf("loadtest: unknown proto %q (want %q or %q)", c.Proto, ProtoJSON, ProtoSkimp)
	}
	return nil
}

// batchSender abstracts the ingest hot path over the two wire
// protocols. Send delivers one batch for the tenant index (0 on
// single-tenant runs) and returns the unified accounting the workers
// tally.
type batchSender interface {
	Send(ctx context.Context, tenant int, updates []Update) (SendOutcome, error)
	Close() error
}

// jsonSender drives /update with one tenant-scoped HTTP client each.
type jsonSender struct{ clients []*Client }

func (s *jsonSender) Send(ctx context.Context, tenant int, updates []Update) (SendOutcome, error) {
	return s.clients[tenant].SendUpdates(ctx, updates, nil)
}

func (s *jsonSender) Close() error { return nil }

// skimpSender drives the SKSP binary protocol through one shared
// persistent connection; Sends from all workers pipeline onto it and
// are matched to replies by seq, which is the protocol's whole
// throughput story — no per-batch connection or HTTP framing.
type skimpSender struct {
	conn *wclient.Conn
	// tenants maps the worker's tenant index to a namespace; nil means
	// single-tenant (empty name = server default).
	tenants []string
}

func (s *skimpSender) Send(ctx context.Context, tenant int, updates []Update) (SendOutcome, error) {
	name := ""
	if s.tenants != nil {
		name = s.tenants[tenant]
	}
	out, err := s.conn.Send(ctx, name, toGroups(updates))
	return SendOutcome{
		Attempts:     int64(out.Attempts),
		Rejected429:  int64(out.Rejected429),
		Applied:      out.Applied,
		Deduplicated: out.Deduplicated,
	}, err
}

func (s *skimpSender) Close() error { return s.conn.Close() }

// toGroups converts a wire batch to the engine's grouped form, one
// group per distinct stream in first-appearance order, preserving
// update order within each stream (same contract as sketchd's own
// /update grouping). A nil Weight means insert (+1), like the JSON
// decoder.
func toGroups(updates []Update) []stream.Group {
	byStream := make(map[string]int, 4)
	groups := make([]stream.Group, 0, 4)
	for _, u := range updates {
		i, ok := byStream[u.Stream]
		if !ok {
			i = len(groups)
			byStream[u.Stream] = i
			groups = append(groups, stream.Group{Name: u.Stream})
		}
		w := int64(1)
		if u.Weight != nil {
			w = *u.Weight
		}
		groups[i].Updates = append(groups[i].Updates, stream.Update{Value: u.Value, Weight: w})
	}
	return groups
}

// SideResult is the client-side accounting of a run's ingest, summed
// over the workers.
type SideResult struct {
	// Requests counts send attempts, including 429'd ones.
	Requests int64
	// Updates counts stream elements acknowledged by the server.
	Updates int64
	// Rejected429 counts attempts answered 429.
	Rejected429 int64
	// Retries counts re-sends after a 429 (Requests includes them).
	Retries int64
	// Errors counts requests that failed permanently.
	Errors int64
	// Shed counts updates dropped client-side because the bounded queue
	// was full when they arrived (open-loop overflow).
	Shed int64
}

// Result is one harness run's client accounting plus the server's own
// view.
type Result struct {
	Config  Config
	Elapsed time.Duration
	Ingest  SideResult
	// Server is /stats fetched after a flush: the reconciliation
	// anchor. Counters are deltas over the run (a pre-run /stats is
	// subtracted), so a warm server reconciles too.
	Server ServerStats
	// Tenants is the per-tenant reconciliation (multi-tenant runs only):
	// one row per tenant, client-acknowledged updates against the
	// tenant's own /stats counter deltas.
	Tenants []TenantRecon
}

// TenantRecon reconciles one tenant's slice of a run exactly: every
// update the client got a 2xx for must appear in that tenant's server
// counters, and no other tenant's. UpdatesSent == ServerUpdates is the
// isolation identity BenchReport.Validate enforces.
type TenantRecon struct {
	Tenant string `json:"tenant"`
	// UpdatesSent counts this tenant's updates acknowledged by 2xx.
	UpdatesSent int64 `json:"updatesSent"`
	// ServerUpdates is the tenant's /stats updateCounts delta over the
	// run (summed across its streams).
	ServerUpdates int64 `json:"serverUpdates"`
	// ServerRejected is the tenant's quota-rejection counter delta.
	ServerRejected int64 `json:"serverRejected"`
}

// TenantNames yields the harness's tenant namespaces for a fan-out of
// n: "t0".."t{n-1}". nil for n <= 1 (single-tenant, flat API).
func TenantNames(n int) []string {
	if n <= 1 {
		return nil
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	return names
}

// tokenBucket paces the arrival process on the monotonic clock.
type tokenBucket struct {
	rate   float64 // tokens per second (0 = unlimited)
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take blocks until n tokens are available (or ctx is done), then
// spends them. With rate 0 it returns immediately.
func (tb *tokenBucket) take(ctx context.Context, n int) error {
	if tb.rate <= 0 {
		return nil
	}
	for {
		now := time.Now()
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		tb.last = now
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		if tb.tokens >= float64(n) {
			tb.tokens -= float64(n)
			return nil
		}
		wait := time.Duration((float64(n) - tb.tokens) / tb.rate * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// workerTally is one ingest worker's private accounting, summed after
// the run.
type workerTally struct {
	requests, updates, rejected429, retries, errorsCnt int64
	// byTenant is the per-tenant slice of updates (indexed like the
	// run's tenant list; nil on single-tenant runs).
	byTenant []int64
}

// tenantBatch is one queued batch tagged with its target tenant index
// (always 0 on single-tenant runs).
type tenantBatch struct {
	tenant  int
	updates []Update
}

// Run executes one load-harness run against a live sketchd: an arrival
// goroutine paces batches through the token bucket into a bounded
// queue, and Workers ingest workers drain it honoring the 429 contract.
// It then flushes the server and fetches /stats so callers can
// reconcile exact counts. Run does not declare streams or queries — do
// setup first, then Run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	gen, err := workload.ParseShape(cfg.Shape, cfg.Domain, cfg.Seed)
	if err != nil {
		return nil, err
	}
	client := cfg.Client

	// Multi-tenant fan-out: one scoped client per tenant, plus a second
	// seeded generator (offset seed, domain = tenant count) choosing each
	// batch's tenant — the same shape as the values, so a zipfian run
	// skews its tenant split zipfianly too, reproducibly.
	tenants := TenantNames(cfg.Tenants)
	sendClients := []*Client{&client}
	var tgen workload.Generator
	if len(tenants) > 0 {
		sendClients = make([]*Client, len(tenants))
		for i, name := range tenants {
			sendClients[i] = client.ForTenant(name)
		}
		tgen, err = workload.ParseShape(cfg.Shape, uint64(len(tenants)), cfg.Seed+1)
		if err != nil {
			return nil, err
		}
	}

	// The hot-path sender: HTTP /update by default, or one shared SKSP
	// connection all workers pipeline onto. Setup and reconciliation
	// below stay on HTTP either way, so the /stats identities hold
	// regardless of protocol.
	var sender batchSender = &jsonSender{clients: sendClients}
	if cfg.Proto == ProtoSkimp {
		sender = &skimpSender{
			conn:    wclient.New(cfg.StreamAddr, wclient.Options{Backoff: cfg.Client.Backoff}),
			tenants: tenants,
		}
	}
	defer sender.Close()

	// Pre-run server counters: subtracted from the post-run fetch so the
	// reported Server view covers exactly this run.
	pre, err := client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadtest: pre-run /stats: %w", err)
	}
	preTenant := make([]*TenantServerStats, len(tenants))
	for i, c := range sendClients {
		if len(tenants) == 0 {
			break
		}
		if preTenant[i], err = c.TenantStats(ctx); err != nil {
			return nil, fmt.Errorf("loadtest: pre-run tenant %s /stats: %w", tenants[i], err)
		}
	}

	runCtx := ctx
	var cancel context.CancelFunc
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	queue := make(chan tenantBatch, cfg.QueueDepth)
	var shed atomic.Int64
	start := time.Now()

	// Arrival process: open loop. Batches are generated at the token-
	// bucket rate regardless of how the workers are doing; a full queue
	// sheds (counts and drops) instead of slowing arrivals, so server
	// slowness shows up as shed load and queue-depth latency, not as a
	// silently reduced offered rate.
	var genWG sync.WaitGroup
	genWG.Add(1)
	go func() {
		defer genWG.Done()
		defer close(queue)
		tb := newTokenBucket(cfg.Rate, cfg.Batch)
		var produced int64
		for s := 0; ; s = (s + 1) % len(cfg.Streams) {
			if cfg.TotalUpdates > 0 && produced >= cfg.TotalUpdates {
				return
			}
			n := int64(cfg.Batch)
			if cfg.TotalUpdates > 0 && cfg.TotalUpdates-produced < n {
				n = cfg.TotalUpdates - produced
			}
			batch := make([]Update, n)
			for i := range batch {
				batch[i] = Update{Stream: cfg.Streams[s], Value: gen.Next()}
			}
			tenant := 0
			if tgen != nil {
				tenant = int(tgen.Next())
			}
			if err := tb.take(runCtx, len(batch)); err != nil {
				return
			}
			if runCtx.Err() != nil {
				return
			}
			produced += n
			select {
			case queue <- tenantBatch{tenant: tenant, updates: batch}:
			default:
				shed.Add(n) // open loop: arrivals never block
			}
		}
	}()

	// Ingest workers.
	tallies := make([]*workerTally, cfg.Workers)
	var workWG sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		tally := &workerTally{byTenant: make([]int64, len(tenants))}
		tallies[w] = tally
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			for item := range queue {
				// Deliveries use ctx, not runCtx: when the duration
				// expires mid-flight, in-queue batches still finish so
				// accounting reconciles exactly.
				out, err := sender.Send(ctx, item.tenant, item.updates)
				tally.requests += out.Attempts
				tally.rejected429 += out.Rejected429
				if out.Attempts > 1 {
					tally.retries += out.Attempts - 1
				}
				if err != nil {
					tally.errorsCnt++
					continue
				}
				tally.updates += out.Applied
				if len(tally.byTenant) > 0 {
					tally.byTenant[item.tenant] += out.Applied
				}
			}
		}()
	}

	genWG.Wait()
	workWG.Wait()
	elapsed := time.Since(start)

	// Flush so every accepted update is folded in, then reconcile.
	if err := client.Flush(ctx); err != nil {
		return nil, fmt.Errorf("loadtest: post-run flush: %w", err)
	}
	post, err := client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadtest: post-run /stats: %w", err)
	}
	server := *post
	server.Ingest.UpdatesEnqueued -= pre.Ingest.UpdatesEnqueued
	server.Ingest.UpdatesApplied -= pre.Ingest.UpdatesApplied
	server.Ingest.Rejected -= pre.Ingest.Rejected

	res := &Result{Config: cfg, Elapsed: elapsed, Server: server}
	res.Ingest = mergeTallies(tallies)
	res.Ingest.Shed = shed.Load()

	// Per-tenant reconciliation: each tenant's client-acknowledged
	// updates against its own /stats deltas. These are the rows
	// BenchReport.Validate checks for exact equality — a cross-tenant
	// routing bug would surface here as a mismatch on both tenants.
	for i, name := range tenants {
		postT, err := sendClients[i].TenantStats(ctx)
		if err != nil {
			return nil, fmt.Errorf("loadtest: post-run tenant %s /stats: %w", name, err)
		}
		var acked int64
		for _, t := range tallies {
			acked += t.byTenant[i]
		}
		res.Tenants = append(res.Tenants, TenantRecon{
			Tenant:         name,
			UpdatesSent:    acked,
			ServerUpdates:  postT.TotalUpdates() - preTenant[i].TotalUpdates(),
			ServerRejected: postT.Rejected - preTenant[i].Rejected,
		})
	}
	return res, nil
}

// mergeTallies sums the per-worker tallies into one SideResult.
func mergeTallies(tallies []*workerTally) SideResult {
	var out SideResult
	for _, t := range tallies {
		out.Requests += t.requests
		out.Updates += t.updates
		out.Rejected429 += t.rejected429
		out.Retries += t.retries
		out.Errors += t.errorsCnt
	}
	return out
}
