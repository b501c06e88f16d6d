package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skimsketch/internal/cluster"
	"skimsketch/internal/engine"
	"skimsketch/internal/httpapi"
	"skimsketch/internal/monitor"
	"skimsketch/internal/stats"
	"skimsketch/internal/wire"
)

// server wraps an engine with the HTTP API.
type server struct {
	eng *engine.Engine
	mux *http.ServeMux
	// snapshot produces the engine checkpoint; a field so tests can
	// substitute a failing producer.
	snapshot func(io.Writer) error
	// predMu guards preds, the wire-expressible definitions of every
	// registered range predicate. Engine predicates are opaque functions,
	// so the server keeps the definitions itself — they go into the
	// checkpoint and are re-registered before restore at boot.
	predMu sync.Mutex
	preds  []predicateDef

	// start anchors the monotonic clock every latency and uptime figure
	// in /stats derives from — wall-clock jumps (NTP steps, suspends)
	// cannot corrupt them, which is what lets an external harness
	// reconcile its own measurements against the server's.
	start time.Time
	// draining flips once shutdown begins; /healthz then reports 503 so
	// load balancers and harnesses stop sending new work during drain.
	draining atomic.Bool
	// latMu guards updateLat, the server-side histogram of /update
	// handling latency (monotonic, admission through response encode,
	// 429 rejections included). One histogram per process; the load
	// harness merges it with its own client-side view.
	latMu     sync.Mutex
	updateLat stats.Histogram

	// dedupe is the (clientID, seq) replay window shared by the SKSP
	// stream listener and /update's Idempotency-Key path: a client that
	// lost a response (dropped connection, timeout) retries under the
	// same identity and is answered from here instead of re-applied.
	dedupe *wire.Window
	// stream is the SKSP listener, when -listen.stream enabled it; its
	// counters render under /stats "stream".
	stream *wire.Server
}

func newServer(eng *engine.Engine) *server {
	s := &server{
		eng:      eng,
		mux:      http.NewServeMux(),
		snapshot: eng.Snapshot,
		start:    time.Now(),
		dedupe:   wire.NewWindow(0, 0),
	}
	s.mux.HandleFunc("/streams", s.handleStreams)
	s.mux.HandleFunc("/predicates", s.handlePredicates)
	s.mux.HandleFunc("/queries", s.handleQueries)
	s.mux.HandleFunc("/queries/", s.handleQueryByName)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/flush", s.handleFlush)
	s.mux.HandleFunc("/answer", s.handleAnswer)
	s.mux.HandleFunc("/sketch", s.handleSketch)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/restore", s.handleRestore)
	s.mux.HandleFunc("/tenants", s.handleTenants)
	s.mux.HandleFunc("/watches", s.handleWatches)
	s.mux.HandleFunc("/watches/", s.handleWatchByName)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// tenantCtxKey carries the tenant resolved from the URL (path prefix or
// ?tenant=) through the mux. The empty string means "not specified",
// which is distinct from naming the default tenant explicitly: a bare
// /stats reports every tenant, /t/default/stats reports one.
type tenantCtxKey struct{}

// ServeHTTP resolves the tenant scope, then muxes. Every endpoint of
// the flat API is also reachable under /t/{tenant}/…, and a ?tenant=
// query parameter scopes the flat paths; naming conflicting tenants in
// both is a 400, not a silent pick.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
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
		if err := engine.ValidTenantName(tenant); err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant))
	}
	s.mux.ServeHTTP(w, r)
}

// requestTenant returns the tenant the URL named, or "" when the
// request used the flat un-scoped API.
func requestTenant(r *http.Request) string {
	tenant, _ := r.Context().Value(tenantCtxKey{}).(string)
	return tenant
}

// scope resolves the tenant handle a request operates on. bodyTenant is
// the request body's optional "tenant" field; precedence is path >
// query > body, with disagreement between URL and body rejected rather
// than resolved. An entirely unscoped request targets the default
// tenant, which is how the pre-tenant flat API keeps its behavior.
func (s *server) scope(r *http.Request, bodyTenant string) (*engine.Tenant, error) {
	tenant := requestTenant(r)
	if bodyTenant != "" && tenant != "" && bodyTenant != tenant {
		return nil, fmt.Errorf("conflicting tenants %q (url) and %q (body)", tenant, bodyTenant)
	}
	if tenant == "" {
		tenant = bodyTenant
	}
	if tenant == "" {
		tenant = engine.DefaultTenant
	} else if err := engine.ValidTenantName(tenant); err != nil {
		return nil, err
	}
	return s.eng.Tenant(tenant), nil
}

// handleHealthz is the readiness probe: 200 while the server is taking
// traffic, 503 once shutdown drain begins. A sketchd that can execute
// this handler has already restored its checkpoint and started its
// ingest pipeline (run() opens the listener last), so 200 really does
// mean "ready", not merely "process exists".
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	if s.draining.Load() {
		httpapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// recordUpdateLatency folds one /update handling duration into the
// server-side histogram.
func (s *server) recordUpdateLatency(d time.Duration) {
	s.latMu.Lock()
	s.updateLat.Record(int64(d))
	s.latMu.Unlock()
}

// updateLatencySnapshot summarizes the server-side /update latency
// histogram for /stats. All durations are nanoseconds from the
// monotonic clock.
func (s *server) updateLatencySnapshot() map[string]any {
	s.latMu.Lock()
	h := s.updateLat // histograms are value types; this is a deep copy
	s.latMu.Unlock()
	return map[string]any{
		"count":  h.Count(),
		"meanNs": h.Mean(),
		"minNs":  h.Min(),
		"maxNs":  h.Max(),
		"p50Ns":  stats.Quantile(&h, 0.50),
		"p95Ns":  stats.Quantile(&h, 0.95),
		"p99Ns":  stats.Quantile(&h, 0.99),
		"p999Ns": stats.Quantile(&h, 0.999),
	}
}

// writeEngineErr maps an engine registration/ingest error to the wire:
// the whole ErrQuotaExceeded family becomes 429 with a Retry-After hint
// (the universal "this tenant is over its share" signal clients already
// back off on), everything else is a caller mistake (400).
func writeEngineErr(w http.ResponseWriter, err error) {
	if errors.Is(err, engine.ErrQuotaExceeded) {
		httpapi.WriteRetryable(w, http.StatusTooManyRequests, 0, err)
		return
	}
	httpapi.WriteErr(w, http.StatusBadRequest, err)
}

// decode parses the request body into v.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

type streamReq struct {
	Tenant string `json:"tenant,omitempty"`
	Name   string `json:"name"`
	Domain uint64 `json:"domain"`
}

func (s *server) handleStreams(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req streamReq
		if err := decode(r, &req); err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		t, err := s.scope(r, req.Tenant)
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		if err := t.DeclareStream(req.Name, req.Domain); err != nil {
			writeEngineErr(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
	case http.MethodGet:
		t, _ := s.scope(r, "")
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"streams": t.Streams()})
	default:
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use POST or GET"))
	}
}

// predicateReq describes a value-range predicate [min, max], the
// predicate form expressible over the wire.
type predicateReq struct {
	Tenant string `json:"tenant,omitempty"`
	Name   string `json:"name"`
	Min    uint64 `json:"min"`
	Max    uint64 `json:"max"`
}

// predicateDef is the persistent form of a range predicate: unlike the
// engine's opaque predicate functions it serializes, so checkpoints are
// self-contained. An empty Tenant means the default tenant — which is
// also what a pre-tenant (version 1) checkpoint decodes to.
type predicateDef struct {
	Tenant string `json:"tenant,omitempty"`
	Name   string `json:"name"`
	Min    uint64 `json:"min"`
	Max    uint64 `json:"max"`
}

// rangePredicate builds the engine predicate for a [min, max] value range.
func rangePredicate(min, max uint64) engine.Predicate {
	return func(v uint64, _ int64) bool { return v >= min && v <= max }
}

// registerRangePredicate registers def with the engine and records its
// definition for checkpointing. Re-registering an identical definition
// is a no-op (so checkpoint restore is idempotent); a conflicting
// definition under an existing (tenant, name) is an error.
func (s *server) registerRangePredicate(def predicateDef) error {
	if def.Tenant == engine.DefaultTenant {
		def.Tenant = "" // canonical spelling, so dedup and checkpoints agree
	}
	tenant := def.Tenant
	if tenant == "" {
		tenant = engine.DefaultTenant
	}
	s.predMu.Lock()
	defer s.predMu.Unlock()
	for _, p := range s.preds {
		if p.Name == def.Name && p.Tenant == def.Tenant {
			if p == def {
				return nil
			}
			return fmt.Errorf("predicate %q already registered with range [%d,%d]", p.Name, p.Min, p.Max)
		}
	}
	if err := s.eng.Tenant(tenant).RegisterPredicate(def.Name, rangePredicate(def.Min, def.Max)); err != nil {
		return err
	}
	s.preds = append(s.preds, def)
	return nil
}

func (s *server) handlePredicates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var req predicateReq
	if err := decode(r, &req); err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Max < req.Min {
		httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("max %d below min %d", req.Max, req.Min))
		return
	}
	t, err := s.scope(r, req.Tenant)
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.registerRangePredicate(predicateDef{Tenant: t.Name(), Name: req.Name, Min: req.Min, Max: req.Max}); err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
}

type sideReq struct {
	Stream        string `json:"stream"`
	Predicate     string `json:"predicate,omitempty"`
	WindowLen     int64  `json:"windowLen,omitempty"`
	WindowBuckets int    `json:"windowBuckets,omitempty"`
}

type queryReq struct {
	Tenant string  `json:"tenant,omitempty"`
	Name   string  `json:"name"`
	Agg    string  `json:"agg"`
	Left   sideReq `json:"left"`
	Right  sideReq `json:"right"`
}

func (s *server) handleQueries(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req queryReq
		if err := decode(r, &req); err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		var agg engine.Aggregate
		switch strings.ToUpper(req.Agg) {
		case "COUNT", "":
			agg = engine.Count
		case "SUM":
			agg = engine.Sum
		default:
			httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("unknown aggregate %q", req.Agg))
			return
		}
		t, err := s.scope(r, req.Tenant)
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		spec := engine.QuerySpec{
			Name:  req.Name,
			Agg:   agg,
			Left:  engine.Side(req.Left),
			Right: engine.Side(req.Right),
		}
		if err := t.RegisterQuery(spec); err != nil {
			// A fresh synopsis pair over the memory quota arrives here and
			// leaves as a 429.
			writeEngineErr(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
	case http.MethodGet:
		t, _ := s.scope(r, "")
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"queries": t.Queries()})
	default:
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use POST or GET"))
	}
}

func (s *server) handleQueryByName(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/queries/")
	if name == "" {
		httpapi.WriteErr(w, http.StatusBadRequest, errors.New("missing query name"))
		return
	}
	if r.Method != http.MethodDelete {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use DELETE"))
		return
	}
	t, _ := s.scope(r, "")
	if err := t.RemoveQuery(name); err != nil {
		httpapi.WriteErr(w, http.StatusNotFound, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	// Every /update outcome — applied, rejected, malformed — is timed on
	// the monotonic clock into the server-side latency histogram, so the
	// request count the harness reconciles against includes 429s.
	t0 := time.Now()
	defer func() { s.recordUpdateLatency(time.Since(t0)) }()
	d, err := httpapi.DecodeUpdates(r, requestTenant(r))
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	reply, err := s.admit(d, nil)
	switch reply.Type {
	case wire.FrameAck:
		if reply.Duplicate {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"applied": reply.Applied, "deduplicated": true})
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]int64{"applied": reply.Applied})
	case wire.FrameReject:
		httpapi.WriteRetryable(w, http.StatusTooManyRequests, 0, err)
	default:
		body := map[string]string{"error": err.Error()}
		var se *engine.StreamError
		if errors.As(err, &se) {
			body["stream"] = se.Stream
		}
		httpapi.WriteJSON(w, http.StatusBadRequest, body)
	}
}

// handleFlush drains the ingest pipeline (a no-op when ingestion is
// synchronous): once it returns, every previously accepted update is
// folded into its synopses. The pipeline is shared, so a tenant-scoped
// flush drains everyone — flush is a barrier, not a privilege.
func (s *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	s.eng.Flush()
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	name := r.URL.Query().Get("query")
	if name == "" {
		httpapi.WriteErr(w, http.StatusBadRequest, errors.New("missing ?query="))
		return
	}
	t, _ := s.scope(r, "")
	ans, err := t.Answer(name)
	if err != nil {
		httpapi.WriteErr(w, http.StatusNotFound, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"query":    ans.Query,
		"agg":      ans.Agg.String(),
		"estimate": ans.Estimate,
		"detail": map[string]any{
			"denseDense":   ans.Detail.DenseDense,
			"denseSparse":  ans.Detail.DenseSparse,
			"sparseDense":  ans.Detail.SparseDense,
			"sparseSparse": ans.Detail.SparseSparse,
			"denseCountF":  ans.Detail.DenseCountF,
			"denseCountG":  ans.Detail.DenseCountG,
		},
	})
}

// handleSketch serves one query's slim SKSL cluster payload — both
// synopses plus the metadata a merger needs to estimate without asking
// again (docs/FORMATS.md). This is the shard side of cluster mode: the
// fat update-side state (hash families, pipeline, intern tables) stays
// here, only the slim counters travel. The snapshot drains the ingest
// pipeline first, so a payload reflects every previously accepted
// update — which is what makes a healthy cluster answer bit-identical
// to a single node's.
func (s *server) handleSketch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	name := r.URL.Query().Get("query")
	if name == "" {
		httpapi.WriteErr(w, http.StatusBadRequest, errors.New("missing ?query="))
		return
	}
	t, _ := s.scope(r, "")
	qs, err := t.QuerySketches(name)
	if err != nil {
		httpapi.WriteErr(w, http.StatusNotFound, err)
		return
	}
	agg := cluster.AggCount
	if qs.Agg == engine.Sum {
		agg = cluster.AggSum
	}
	blob, err := cluster.EncodePayload(&cluster.Payload{
		Agg: agg, Domain: qs.Domain,
		LeftEpoch: qs.LeftEpoch, RightEpoch: qs.RightEpoch,
		Left: qs.Left, Right: qs.Right,
	})
	if err != nil {
		httpapi.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// handleSnapshot serves the engine state (streams, queries, synopsis
// counters) as the engine's JSON snapshot format — the checkpoint side
// of a restart. Tenant-scoped, it serves just that tenant's slice in
// the single-tenant layout. The snapshot is buffered before any byte
// reaches the client: a mid-serialization error therefore yields a
// clean 500 JSON error instead of a 200 with a truncated body glued to
// an error fragment (which a restoring client would read as a corrupt
// checkpoint), and success responses carry an exact Content-Length.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	produce := s.snapshot
	if tenant := requestTenant(r); tenant != "" {
		produce = s.eng.Tenant(tenant).Snapshot
	}
	var buf bytes.Buffer
	if err := produce(&buf); err != nil {
		httpapi.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleRestore loads a snapshot into the (empty) engine, or — tenant-
// scoped — a single-tenant snapshot into one empty tenant of a running
// engine. Range predicates registered via /predicates must be
// re-registered before restoring a snapshot that references them.
func (s *server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var err error
	if tenant := requestTenant(r); tenant != "" {
		err = s.eng.Tenant(tenant).Restore(r.Body)
	} else {
		err = s.eng.Restore(r.Body)
	}
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// quotaJSON is the wire form of a tenant quota (0 = unlimited).
func quotaJSON(q engine.Quota) map[string]any {
	return map[string]any{
		"maxSynopsisWords":  q.MaxSynopsisWords,
		"maxPendingUpdates": q.MaxPendingUpdates,
	}
}

// tenantStatsJSON renders one tenant's stats slice.
func tenantStatsJSON(st engine.TenantStats) map[string]any {
	return map[string]any{
		"tenant":       st.Tenant,
		"streams":      st.Streams,
		"queries":      st.Queries,
		"synopses":     st.Synopses,
		"synopsisRefs": st.SynopsisRefs,
		"totalWords":   st.TotalWords,
		"updateCounts": st.UpdateCounts,
		"answerCache": map[string]int64{
			"hits":   st.AnswerCacheHits,
			"misses": st.AnswerCacheMisses,
		},
		"pendingUpdates": st.PendingUpdates,
		"rejected":       st.Rejected,
		"watches":        st.Watches,
		"quota":          quotaJSON(st.Quota),
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	// A tenant-scoped /stats is just that tenant's slice — what a tenant
	// harness reconciles its own counters against.
	if tenant := requestTenant(r); tenant != "" {
		httpapi.WriteJSON(w, http.StatusOK, tenantStatsJSON(s.eng.Tenant(tenant).Stats()))
		return
	}
	st := s.eng.Stats()
	tenants := make(map[string]any, len(st.Tenants))
	for name, ts := range st.Tenants {
		tenants[name] = tenantStatsJSON(ts)
	}
	resp := map[string]any{
		"streams":      st.Streams,
		"queries":      st.Queries,
		"synopses":     st.Synopses,
		"synopsisRefs": st.SynopsisRefs,
		"totalWords":   st.TotalWords,
		"updateCounts": st.UpdateCounts,
		"queryWorkers": st.QueryWorkers,
		"answerCache": map[string]int64{
			"hits":   st.AnswerCacheHits,
			"misses": st.AnswerCacheMisses,
		},
		"watches": st.Watches,
		"tenants": tenants,
		"ingest":  s.eng.IngestStats(),
		// saturated mirrors the admission probe behind /update's 429:
		// true while at least one ingest queue is full.
		"saturated": s.eng.IngestSaturated(),
		// updateLatency is the server-side /update handling histogram
		// and uptimeSeconds the process age, both on the monotonic
		// clock — the fields cmd/loadgen reconciles its client-side
		// measurements against (request counts must match exactly;
		// latencies must bracket from below).
		"updateLatency": s.updateLatencySnapshot(),
		"uptimeSeconds": time.Since(s.start).Seconds(),
	}
	// The SKSP listener's counters, when -listen.stream is on: the
	// binary-protocol mirror of the HTTP ingest figures above.
	if s.stream != nil {
		resp["stream"] = struct {
			wire.ServerStats
			DedupeClients int `json:"dedupeClients"`
		}{s.stream.Stats(), s.dedupe.Clients()}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// tenantReq configures one tenant: POST /tenants installs (or replaces)
// its quota.
type tenantReq struct {
	Name  string       `json:"name"`
	Quota engine.Quota `json:"quota"`
}

// handleTenants administers tenant namespaces: GET lists every tenant
// with its quota, POST sets a tenant's quota (creating the namespace if
// needed). Quotas take effect immediately; lowering one below current
// usage keeps existing state and rejects further growth.
func (s *server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st := s.eng.Stats()
		names := s.eng.TenantNames()
		out := make([]map[string]any, 0, len(names))
		for _, name := range names {
			out = append(out, tenantStatsJSON(st.Tenants[name]))
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"tenants": out})
	case http.MethodPost:
		var req tenantReq
		if err := decode(r, &req); err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.eng.SetQuota(req.Name, req.Quota); err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	default:
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

// watchReq registers one standing watch on a query of the scoped
// tenant.
type watchReq struct {
	Tenant string `json:"tenant,omitempty"`
	Query  string `json:"query"`
	High   int64  `json:"high"`
	Low    int64  `json:"low"`
}

// watchJSON renders one watch status, naming the alert state.
func watchJSON(st monitor.WatchStatus) map[string]any {
	state := "normal"
	if st.State == monitor.Alert {
		state = "alert"
	}
	return map[string]any{
		"tenant":       st.Tenant,
		"query":        st.Query,
		"high":         st.High,
		"low":          st.Low,
		"state":        state,
		"evaluations":  st.Evaluations,
		"transitions":  st.Transitions,
		"lastEstimate": st.LastEstimate,
	}
}

// watchListJSON renders a watch status list (never null on the wire).
func watchListJSON(sts []monitor.WatchStatus) []map[string]any {
	out := make([]map[string]any, 0, len(sts))
	for _, st := range sts {
		out = append(out, watchJSON(st))
	}
	return out
}

// handleWatches manages the scoped tenant's standing watches: GET lists
// them, POST registers one.
func (s *server) handleWatches(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		t, _ := s.scope(r, "")
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"watches": watchListJSON(t.Watches())})
	case http.MethodPost:
		var req watchReq
		if err := decode(r, &req); err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		t, err := s.scope(r, req.Tenant)
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		if err := t.RegisterWatch(engine.WatchSpec{Query: req.Query, High: req.High, Low: req.Low}); err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
	default:
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

// handleWatchByName serves /watches/evaluate (POST: answer every watched
// query of the scoped tenant and run the alert state machines) and
// /watches/{query} (DELETE: drop one watch).
func (s *server) handleWatchByName(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/watches/")
	if name == "evaluate" {
		if r.Method != http.MethodPost {
			httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		t, _ := s.scope(r, "")
		sts, err := t.EvaluateWatches()
		if err != nil {
			httpapi.WriteErr(w, http.StatusInternalServerError, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"watches": watchListJSON(sts)})
		return
	}
	if name == "" {
		httpapi.WriteErr(w, http.StatusBadRequest, errors.New("missing watch query name"))
		return
	}
	if r.Method != http.MethodDelete {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("use DELETE"))
		return
	}
	t, _ := s.scope(r, "")
	if err := t.RemoveWatch(name); err != nil {
		httpapi.WriteErr(w, http.StatusNotFound, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// sketchdCheckpoint is the payload sketchd stores inside the SKCP
// checkpoint envelope (internal/checkpoint): the wire-expressible
// predicate definitions plus the engine's own JSON snapshot. Carrying
// the predicates makes the checkpoint self-contained — Engine.Restore
// requires every predicate named by a snapshot to be re-registered
// first, which a bare engine snapshot cannot do across a restart.
//
// Version 2 scopes each predicate to its tenant (predicateDef.Tenant,
// empty = default) and may carry a multi-tenant engine snapshot.
// Version 1 payloads — written before tenants existed — decode
// identically with every predicate in the default tenant, and their
// engine snapshot restores into the default tenant bit-identically.
type sketchdCheckpoint struct {
	Version    int             `json:"version"`
	Predicates []predicateDef  `json:"predicates,omitempty"`
	Engine     json.RawMessage `json:"engine"`
}

const sketchdCheckpointVersion = 2

// writeCheckpoint produces the full server checkpoint payload. It is
// handed to checkpoint.Manager.Save, which wraps it in the SKCP
// envelope and rotates it onto disk atomically.
func (s *server) writeCheckpoint(w io.Writer) error {
	var engBuf bytes.Buffer
	if err := s.snapshot(&engBuf); err != nil {
		return err
	}
	s.predMu.Lock()
	preds := append([]predicateDef(nil), s.preds...)
	s.predMu.Unlock()
	return json.NewEncoder(w).Encode(&sketchdCheckpoint{
		Version:    sketchdCheckpointVersion,
		Predicates: preds,
		Engine:     engBuf.Bytes(),
	})
}

// readCheckpoint restores a checkpoint payload into the (empty) engine:
// predicates first, then the engine snapshot. Versions 1 (pre-tenant)
// and 2 are both accepted.
func (s *server) readCheckpoint(r io.Reader) error {
	var cp sketchdCheckpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&cp); err != nil {
		return fmt.Errorf("decode checkpoint: %w", err)
	}
	if cp.Version != 1 && cp.Version != sketchdCheckpointVersion {
		return fmt.Errorf("unsupported sketchd checkpoint version %d", cp.Version)
	}
	for _, def := range cp.Predicates {
		if err := s.registerRangePredicate(def); err != nil {
			return err
		}
	}
	return s.eng.Restore(bytes.NewReader(cp.Engine))
}
