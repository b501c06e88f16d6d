package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/httpapi"
	"skimsketch/internal/wire"
)

// Merger is the cluster's front tier: an http.Handler that hash-routes
// ingest to the shard ring, broadcasts registrations so every shard
// holds the same schema, and answers global joins by pulling each
// shard's slim SKSL payload and merging the synopses through
// distributed.Merge.
//
// Failure handling is first-class. Every cross-node call carries a
// context deadline — there are no deadline-less dials anywhere in the
// path — and a lagging or dead shard degrades an answer instead of
// failing it: the merger estimates over the shards it has and reports
//
//	"shards":     {"answered": k, "of": n, "missing": [...]}
//	"confidence": {"coverage": k/n, "errorWidening": n/k, "degraded": true}
//
// Because routing partitions values (see Config.Route), the degraded
// estimate is exactly the join over the surviving value partition: the
// merge of k shard synopses is bit-identical to a synopsis maintained
// over precisely those shards' updates, so coverage k/n is an honest
// statement of what the number means. The paper's ±ε guarantee applies
// to the covered partition; errorWidening = n/k is the factor by which
// the missing mass could scale the true total in the uniform case.
type Merger struct {
	cfg     Config
	client  *http.Client
	timeout time.Duration
	epoch   time.Duration
	retry   distributed.Backoff
	now     func() time.Time
	mux     *http.ServeMux

	// cacheMu guards cache, the epoch-TTL store of pulled global
	// answers. With epoch 0 every /answer pulls fresh payloads — the
	// deterministic mode the integration harness uses.
	cacheMu sync.Mutex
	cache   map[string]cachedAnswer

	draining atomic.Bool

	// Counters for /stats.
	updateCalls    atomic.Int64
	updatesRouted  atomic.Int64
	updateRejected atomic.Int64
	answers        atomic.Int64
	answersCached  atomic.Int64
	degraded       atomic.Int64
	pulls          atomic.Int64
	pullFailures   atomic.Int64
	start          time.Time

	// stream is the SKSP ingress (NewStreamForwarder), when one is
	// attached; its counters render under /stats "stream".
	stream *wire.Server
}

// MergerOptions tunes a Merger. The zero value is usable.
type MergerOptions struct {
	// Timeout bounds every cross-node call (dial through body read).
	// <= 0 defaults to 5s.
	Timeout time.Duration
	// Epoch is the pull-cache TTL: a global answer younger than this is
	// served from cache without re-pulling the shards. 0 pulls fresh on
	// every /answer.
	Epoch time.Duration
	// Client overrides the HTTP client for cross-node calls; nil builds
	// one with connect and request timeouts derived from Timeout.
	Client *http.Client
	// Retry is the per-shard pull retry policy; the zero value uses 3
	// attempts, 50ms base. Retry-After hints from shards floor the
	// delays (distributed.RetryAfterError).
	Retry distributed.Backoff
	// Now is the clock, for tests. nil uses time.Now.
	Now func() time.Time
}

type cachedAnswer struct {
	resp map[string]any
	at   time.Time
}

// NewMerger validates the membership config and builds the handler.
func NewMerger(cfg Config, opts MergerOptions) (*Merger, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				DialContext:           (&net.Dialer{Timeout: timeout}).DialContext,
				ResponseHeaderTimeout: timeout,
				MaxIdleConnsPerHost:   64,
				IdleConnTimeout:       90 * time.Second,
			},
		}
	}
	retry := opts.Retry
	if retry == (distributed.Backoff{}) {
		retry = distributed.Backoff{Base: 50 * time.Millisecond, Max: time.Second, Attempts: 3}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	m := &Merger{
		cfg:     cfg,
		client:  client,
		timeout: timeout,
		epoch:   opts.Epoch,
		retry:   retry,
		now:     now,
		mux:     http.NewServeMux(),
		cache:   make(map[string]cachedAnswer),
		start:   time.Now(),
	}
	// Registration and admin endpoints broadcast to every shard so the
	// ring stays schema-uniform; reads of the (uniform) schema are
	// answered by the first shard.
	m.mux.HandleFunc("/streams", m.handleBroadcast)
	m.mux.HandleFunc("/predicates", m.handleBroadcast)
	m.mux.HandleFunc("/queries", m.handleBroadcast)
	m.mux.HandleFunc("/queries/", m.handleBroadcast)
	m.mux.HandleFunc("/tenants", m.handleBroadcast)
	m.mux.HandleFunc("/watches", m.handleBroadcast)
	m.mux.HandleFunc("/watches/", m.handleBroadcast)
	m.mux.HandleFunc("/flush", m.handleBroadcast)
	m.mux.HandleFunc("/update", m.handleUpdate)
	m.mux.HandleFunc("/answer", m.handleAnswer)
	m.mux.HandleFunc("/sketch", m.handleSketch)
	m.mux.HandleFunc("/stats", m.handleStats)
	m.mux.HandleFunc("/healthz", m.handleHealthz)
	return m, nil
}

// SetDraining flips the readiness probe to 503 during shutdown drain.
func (m *Merger) SetDraining() { m.draining.Store(true) }

// Shards returns the membership list (a copy).
func (m *Merger) Shards() []Shard { return append([]Shard(nil), m.cfg.Shards...) }

// ServeHTTP resolves the tenant scope exactly like sketchd's flat API
// (path prefix /t/{tenant}/ or ?tenant=), then muxes. The resolved
// tenant travels to shards as a ?tenant= query parameter.
func (m *Merger) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tenant := ""
	if rest, ok := strings.CutPrefix(r.URL.Path, "/t/"); ok {
		name, tail, found := strings.Cut(rest, "/")
		if !found || name == "" {
			httpapi.WriteErr(w, http.StatusNotFound, errors.New("tenant-scoped paths are /t/{tenant}/{endpoint}"))
			return
		}
		tenant = name
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/" + tail
		r = r2
	}
	if q := r.URL.Query().Get("tenant"); q != "" {
		if tenant != "" && q != tenant {
			httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("conflicting tenants %q (path) and %q (query)", tenant, q))
			return
		}
		tenant = q
	}
	if tenant != "" {
		r = r.WithContext(context.WithValue(r.Context(), mergerTenantKey{}, tenant))
	}
	m.mux.ServeHTTP(w, r)
}

type mergerTenantKey struct{}

func mergerTenant(r *http.Request) string {
	t, _ := r.Context().Value(mergerTenantKey{}).(string)
	return t
}

// shardURL builds a shard API URL with the tenant (if any) and extra
// query parameters attached.
func (m *Merger) shardURL(s Shard, path, tenant string, params url.Values) string {
	base := strings.TrimSuffix(s.Addr, "/") + path
	if params == nil {
		params = url.Values{}
	}
	if tenant != "" {
		params.Set("tenant", tenant)
	}
	if enc := params.Encode(); enc != "" {
		return base + "?" + enc
	}
	return base
}

// forward runs one cross-node call under the merger's deadline and
// returns the shard's response with its body fully read (capped).
func (m *Merger) forward(ctx context.Context, method, u string, body []byte, header http.Header) (status int, respBody []byte, respHeader http.Header, err error) {
	cctx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(cctx, method, u, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	if body != nil && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, httpapi.MaxBodyBytes+1))
	if err != nil {
		return 0, nil, nil, err
	}
	if len(b) > httpapi.MaxBodyBytes {
		return 0, nil, nil, fmt.Errorf("cluster: response from %s exceeds %d bytes", u, httpapi.MaxBodyBytes)
	}
	return resp.StatusCode, b, resp.Header, nil
}

// handleBroadcast forwards a registration/admin request to every shard
// (POST/DELETE) or to the first shard (GET — the schema is uniform by
// construction, so any shard can answer). All shards must accept a
// mutation; the first refusal or transport failure is propagated and
// the caller retries the whole request (registrations are idempotent on
// the shard side).
func (m *Merger) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	tenant := mergerTenant(r)
	if r.Method == http.MethodGet {
		status, body, hdr, err := m.forward(r.Context(), http.MethodGet, m.shardURL(m.cfg.Shards[0], r.URL.Path, tenant, nil), nil, nil)
		if err != nil {
			httpapi.WriteRetryable(w, http.StatusServiceUnavailable, 0, fmt.Errorf("shard %s: %w", m.cfg.Shards[0].Name, err))
			return
		}
		copyResponse(w, status, body, hdr)
		return
	}
	body, err := httpapi.ReadBody(r)
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	type result struct {
		shard  Shard
		status int
		body   []byte
		header http.Header
		err    error
	}
	results := make([]result, len(m.cfg.Shards))
	var wg sync.WaitGroup
	for i, s := range m.cfg.Shards {
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			st, b, h, err := m.forward(r.Context(), r.Method, m.shardURL(s, r.URL.Path, tenant, nil), body, nil)
			results[i] = result{shard: s, status: st, body: b, header: h, err: err}
		}(i, s)
	}
	wg.Wait()
	// Transport failures dominate (the mutation may be half-applied
	// across the ring; the client must retry it everywhere), then the
	// first shard-side refusal, then success.
	for _, res := range results {
		if res.err != nil {
			httpapi.WriteRetryable(w, http.StatusServiceUnavailable, 0, fmt.Errorf("shard %s: %w", res.shard.Name, res.err))
			return
		}
	}
	for _, res := range results {
		if res.status >= 300 {
			if res.status == http.StatusTooManyRequests {
				httpapi.WriteRetryable(w, http.StatusTooManyRequests, distributed.ParseRetryAfter(res.header.Get("Retry-After"), m.now()), fmt.Errorf("shard %s refused", res.shard.Name))
				return
			}
			copyResponse(w, res.status, res.body, res.header)
			return
		}
	}
	copyResponse(w, results[0].status, results[0].body, results[0].header)
}

func copyResponse(w http.ResponseWriter, status int, body []byte, hdr http.Header) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// shardUpdate is one element of a per-shard /update sub-batch.
type shardUpdate struct {
	Stream string `json:"stream"`
	Value  uint64 `json:"value"`
	Weight int64  `json:"weight"`
}

// handleUpdate admits a JSON update batch through ingest, exactly as
// forwardFrame admits an SKSP frame; only the rendering differs. A
// shard's permanent refusal is copied verbatim.
func (m *Merger) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	m.updateCalls.Add(1)
	d, err := httpapi.DecodeUpdates(r, mergerTenant(r))
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	out, total := m.ingest(r.Context(), d)
	if out.err != nil {
		switch out.kind {
		case fanPermanent:
			copyResponse(w, out.status, out.body, out.header)
		case fanRejected:
			m.updateRejected.Add(1)
			httpapi.WriteRetryable(w, http.StatusTooManyRequests, out.retryAfter, out.err)
		default:
			m.updateRejected.Add(1)
			httpapi.WriteRetryable(w, http.StatusServiceUnavailable, out.retryAfter, out.err)
		}
		return
	}
	m.updatesRouted.Add(total)
	resp := map[string]any{"applied": total, "shards": out.shards}
	if out.allDup {
		resp["deduplicated"] = true
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// ingest routes one request across the ring — each element to the shard
// Route picks for its (tenant, stream, value), so the per-shard
// sub-batches partition the request — and forwards the sub-batches. It
// returns the folded outcome and the number of elements routed.
func (m *Merger) ingest(ctx context.Context, d *wire.Data) (fanResult, int64) {
	perShard := make([][]shardUpdate, len(m.cfg.Shards))
	var total int64
	for _, g := range d.Groups {
		for _, u := range g.Updates {
			si := m.cfg.Route(d.Tenant, g.Name, u.Value)
			perShard[si] = append(perShard[si], shardUpdate{Stream: g.Name, Value: u.Value, Weight: u.Weight})
			total++
		}
	}
	return m.fanOutUpdate(ctx, d.Tenant, perShard, d.ClientID, d.Seq), total
}

// deriveKey scopes a client idempotency identity (clientID, seq) to one
// shard: "clientID.s<i>:seq". The merger fans one logical batch out to
// several shards, and a retry after a partial failure must not
// double-apply on the shards that already accepted — each shard's dedupe
// window sees a stable per-shard identity, so replays are answered from
// memory there. Requests without a key (clientID "") are at-least-once
// per shard under merger-level retry, exactly like keyless single-node
// batches.
func deriveKey(clientID string, seq uint64, shard int) string {
	if clientID == "" {
		return ""
	}
	return fmt.Sprintf("%s.s%d:%d", clientID, shard, seq)
}

type fanKind int

const (
	fanPermanent   fanKind = iota + 1 // 4xx from a shard: do not retry
	fanRejected                       // 429: nothing applied there, retry whole batch
	fanUnreachable                    // transport failure: retry whole batch
)

type fanResult struct {
	err        error
	kind       fanKind
	status     int
	body       []byte
	header     http.Header
	retryAfter time.Duration
	allDup     bool
	shards     int // shards that received a sub-batch
}

// fanOutUpdate forwards the non-empty per-shard sub-batches (indexed by
// shard) concurrently and folds the outcomes: permanent refusals
// dominate (the request itself is bad), then 429s (retryable, with the
// largest shard hint), then transport failures. Success requires every
// involved shard to accept.
func (m *Merger) fanOutUpdate(ctx context.Context, tenant string, perShard [][]shardUpdate, clientID string, seq uint64) fanResult {
	type shardOut struct {
		shard      Shard
		status     int
		body       []byte
		header     http.Header
		dup        bool
		err        error
		retryAfter time.Duration
	}
	outs := make([]shardOut, len(perShard))
	var wg sync.WaitGroup
	for si, items := range perShard {
		if len(items) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, items []shardUpdate) {
			defer wg.Done()
			s := m.cfg.Shards[si]
			body, err := json.Marshal(items)
			if err != nil {
				outs[si] = shardOut{shard: s, err: err}
				return
			}
			hdr := http.Header{}
			if key := deriveKey(clientID, seq, si); key != "" {
				hdr.Set("Idempotency-Key", key)
			}
			status, respBody, respHdr, err := m.forward(ctx, http.MethodPost, m.shardURL(s, "/update", tenant, nil), body, hdr)
			o := shardOut{shard: s, status: status, body: respBody, header: respHdr, err: err}
			if err == nil {
				o.retryAfter = distributed.ParseRetryAfter(respHdr.Get("Retry-After"), m.now())
				var ack struct {
					Deduplicated bool `json:"deduplicated"`
				}
				if json.Unmarshal(respBody, &ack) == nil {
					o.dup = ack.Deduplicated
				}
			}
			outs[si] = o
		}(si, items)
	}
	wg.Wait()
	sent := outs[:0]
	for si := range outs {
		if len(perShard[si]) > 0 {
			sent = append(sent, outs[si])
		}
	}
	outs = sent
	res := fanResult{allDup: len(outs) > 0, shards: len(outs)}
	for _, o := range outs {
		if o.err == nil && o.status < 300 && !o.dup {
			res.allDup = false
		}
	}
	for _, o := range outs {
		if o.err == nil && o.status >= 300 && o.status != http.StatusTooManyRequests {
			return fanResult{err: fmt.Errorf("shard %s refused: %s", o.shard.Name, strings.TrimSpace(string(o.body))), kind: fanPermanent, status: o.status, body: o.body, header: o.header}
		}
	}
	for _, o := range outs {
		if o.err == nil && o.status == http.StatusTooManyRequests {
			if res.retryAfter < o.retryAfter {
				res.retryAfter = o.retryAfter
			}
			res.err = fmt.Errorf("shard %s saturated; retry whole batch", o.shard.Name)
			res.kind = fanRejected
		}
	}
	if res.err != nil {
		return res
	}
	for _, o := range outs {
		if o.err != nil {
			return fanResult{err: fmt.Errorf("shard %s unreachable: %w", o.shard.Name, o.err), kind: fanUnreachable}
		}
	}
	return res
}

// pullResult is one shard's contribution to a global answer.
type pullResult struct {
	shard   Shard
	payload *Payload
	err     error
}

// pullPayloads fetches every shard's SKSL payload concurrently. Each
// pull runs under the merger's retry policy with per-attempt deadlines;
// a shard 429/503 carries its Retry-After hint into the policy via
// distributed.RetryAfterError, so the merger honors shard backpressure
// instead of hammering a recovering node.
func (m *Merger) pullPayloads(ctx context.Context, tenant, query string) []pullResult {
	results := make([]pullResult, len(m.cfg.Shards))
	var wg sync.WaitGroup
	for i, s := range m.cfg.Shards {
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			var p *Payload
			err := m.retry.Retry(ctx, func(ctx context.Context) error {
				var ferr error
				p, ferr = m.fetchPayload(ctx, s, tenant, query)
				return ferr
			})
			if err != nil {
				m.pullFailures.Add(1)
			}
			results[i] = pullResult{shard: s, payload: p, err: err}
		}(i, s)
	}
	wg.Wait()
	return results
}

// fetchPayload performs one GET /sketch attempt against one shard.
func (m *Merger) fetchPayload(ctx context.Context, s Shard, tenant, query string) (*Payload, error) {
	m.pulls.Add(1)
	params := url.Values{"query": {query}}
	status, body, hdr, err := m.forward(ctx, http.MethodGet, m.shardURL(s, "/sketch", tenant, params), nil, nil)
	if err != nil {
		return nil, fmt.Errorf("pull %s: %w", s.Name, err)
	}
	switch {
	case status == http.StatusOK:
		p, err := DecodePayload(body)
		if err != nil {
			return nil, fmt.Errorf("pull %s: %w", s.Name, err)
		}
		return p, nil
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return nil, &distributed.RetryAfterError{
			After: distributed.ParseRetryAfter(hdr.Get("Retry-After"), m.now()),
			Err:   fmt.Errorf("pull %s: shard busy (%d)", s.Name, status),
		}
	default:
		return nil, fmt.Errorf("pull %s: status %d: %s", s.Name, status, strings.TrimSpace(string(body)))
	}
}

// pullMerged pulls every shard's payload for one query and merges the
// survivors into one payload carrying the summed epochs. It fails with
// 503 when no shard answered and 500 when the survivors disagree on the
// query's metadata (the ring schema has diverged). missing names the
// shards left out of the merge, never nil.
func (m *Merger) pullMerged(ctx context.Context, tenant, query string) (merged *Payload, missing []string, status int, err error) {
	var lefts, rights []*core.HashSketch
	var ref *Payload
	var leftEpoch, rightEpoch uint64
	missing = []string{}
	for _, pr := range m.pullPayloads(ctx, tenant, query) {
		if pr.err != nil {
			missing = append(missing, pr.shard.Name)
			continue
		}
		p := pr.payload
		if ref == nil {
			ref = p
		} else if p.Agg != ref.Agg || p.Domain != ref.Domain {
			return nil, nil, http.StatusInternalServerError,
				fmt.Errorf("shard %s disagrees on query metadata (agg %d domain %d vs agg %d domain %d): ring schema has diverged",
					pr.shard.Name, p.Agg, p.Domain, ref.Agg, ref.Domain)
		}
		lefts = append(lefts, p.Left)
		rights = append(rights, p.Right)
		leftEpoch += p.LeftEpoch
		rightEpoch += p.RightEpoch
	}
	if ref == nil {
		return nil, nil, http.StatusServiceUnavailable, fmt.Errorf("no shard answered for query %q (%d tried)", query, len(m.cfg.Shards))
	}
	mergedL, err := distributed.Merge(lefts...)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, fmt.Errorf("merge left synopses: %w", err)
	}
	mergedR, err := distributed.Merge(rights...)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, fmt.Errorf("merge right synopses: %w", err)
	}
	merged = &Payload{
		Agg: ref.Agg, Domain: ref.Domain,
		LeftEpoch: leftEpoch, RightEpoch: rightEpoch,
		Left: mergedL, Right: mergedR,
	}
	return merged, missing, http.StatusOK, nil
}

// globalAnswer pulls, merges, and estimates one query across the ring.
func (m *Merger) globalAnswer(ctx context.Context, tenant, query string) (map[string]any, int, error) {
	p, missing, status, err := m.pullMerged(ctx, tenant, query)
	if err != nil {
		return nil, status, err
	}
	n := len(m.cfg.Shards)
	k := n - len(missing)
	est, err := core.EstimateJoin(p.Left, p.Right, p.Domain, nil)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("estimate over merged synopses: %w", err)
	}
	agg := "COUNT"
	if p.Agg == AggSum {
		agg = "SUM"
	}
	resp := map[string]any{
		"query":    query,
		"agg":      agg,
		"estimate": est.Total,
		"detail": map[string]any{
			"denseDense":   est.DenseDense,
			"denseSparse":  est.DenseSparse,
			"sparseDense":  est.SparseDense,
			"sparseSparse": est.SparseSparse,
			"denseCountF":  est.DenseCountF,
			"denseCountG":  est.DenseCountG,
		},
		"shards": map[string]any{"answered": k, "of": n, "missing": missing},
		"confidence": map[string]any{
			"coverage":      float64(k) / float64(n),
			"errorWidening": float64(n) / float64(k),
			"degraded":      k < n,
		},
		"epochs": map[string]uint64{"left": p.LeftEpoch, "right": p.RightEpoch},
	}
	return resp, http.StatusOK, nil
}

func (m *Merger) handleAnswer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	query := r.URL.Query().Get("query")
	if query == "" {
		httpapi.WriteErr(w, http.StatusBadRequest, errors.New("missing ?query="))
		return
	}
	tenant := mergerTenant(r)
	m.answers.Add(1)
	key := tenant + "\x00" + query
	if m.epoch > 0 {
		m.cacheMu.Lock()
		c, ok := m.cache[key]
		m.cacheMu.Unlock()
		if ok && m.now().Sub(c.at) < m.epoch {
			m.answersCached.Add(1)
			httpapi.WriteJSON(w, http.StatusOK, c.resp)
			return
		}
	}
	resp, status, err := m.globalAnswer(r.Context(), tenant, query)
	if err != nil {
		if status == http.StatusServiceUnavailable {
			httpapi.WriteRetryable(w, status, 0, err)
			return
		}
		httpapi.WriteErr(w, status, err)
		return
	}
	if deg, _ := resp["confidence"].(map[string]any)["degraded"].(bool); deg {
		m.degraded.Add(1)
	}
	if m.epoch > 0 {
		m.cacheMu.Lock()
		m.cache[key] = cachedAnswer{resp: resp, at: m.now()}
		m.cacheMu.Unlock()
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// handleSketch serves the MERGED global SKSL payload for a query — the
// same format the shards serve — which makes merger tiers stackable: a
// higher-level merger can pull a whole sub-cluster through one address.
// Degraded coverage is reported in X-Cluster-Shards ("k/n") rather than
// an error, mirroring /answer.
func (m *Merger) handleSketch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	query := r.URL.Query().Get("query")
	if query == "" {
		httpapi.WriteErr(w, http.StatusBadRequest, errors.New("missing ?query="))
		return
	}
	p, missing, status, err := m.pullMerged(r.Context(), mergerTenant(r), query)
	if err != nil {
		if status == http.StatusServiceUnavailable {
			httpapi.WriteRetryable(w, status, 0, err)
			return
		}
		httpapi.WriteErr(w, status, err)
		return
	}
	blob, err := EncodePayload(p)
	if err != nil {
		httpapi.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Header().Set("X-Cluster-Shards", fmt.Sprintf("%d/%d", len(m.cfg.Shards)-len(missing), len(m.cfg.Shards)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

func (m *Merger) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	shards := make([]map[string]any, 0, len(m.cfg.Shards))
	for _, s := range m.cfg.Shards {
		shards = append(shards, map[string]any{"name": s.Name, "addr": s.Addr})
	}
	resp := map[string]any{
		"role":   "merger",
		"shards": shards,
		"ingest": map[string]int64{
			"calls":    m.updateCalls.Load(),
			"routed":   m.updatesRouted.Load(),
			"rejected": m.updateRejected.Load(),
		},
		"answers": map[string]int64{
			"total":    m.answers.Load(),
			"cached":   m.answersCached.Load(),
			"degraded": m.degraded.Load(),
		},
		"pulls": map[string]int64{
			"total":    m.pulls.Load(),
			"failures": m.pullFailures.Load(),
		},
		"epochSeconds":  m.epoch.Seconds(),
		"uptimeSeconds": time.Since(m.start).Seconds(),
	}
	if m.stream != nil {
		resp["stream"] = m.stream.Stats()
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (m *Merger) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	if m.draining.Load() {
		httpapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
