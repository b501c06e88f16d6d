package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
	wclient "skimsketch/internal/wire/client"
)

// testShard is a minimal in-process stand-in for a sketchd shard: a
// real engine behind the handful of endpoints the merger talks to
// (/streams, /queries, /update with Idempotency-Key dedupe, /sketch,
// /flush). Fault injection knobs drive the degraded and retry tests.
type testShard struct {
	eng *engine.Engine
	srv *httptest.Server

	mu      sync.Mutex
	applied map[string]int64 // Idempotency-Key → applied count

	updates atomic.Int64
	// saturate429 forces the next N /update calls to answer 429 with
	// Retry-After satHint; sketch429 does the same for /sketch pulls.
	saturate429 atomic.Int64
	sketch429   atomic.Int64
	sketchCalls atomic.Int64
	satHint     int
}

func testCfg() core.Config { return core.Config{Tables: 5, Buckets: 128, Seed: 11} }

func newTestShard(t *testing.T) *testShard {
	t.Helper()
	eng, err := engine.New(engine.Options{SketchConfig: testCfg()})
	if err != nil {
		t.Fatal(err)
	}
	ts := &testShard{eng: eng, applied: make(map[string]int64), satHint: 2}
	mux := http.NewServeMux()
	mux.HandleFunc("/streams", ts.handleStreams)
	mux.HandleFunc("/queries", ts.handleQueries)
	mux.HandleFunc("/update", ts.handleUpdate)
	mux.HandleFunc("/sketch", ts.handleSketch)
	mux.HandleFunc("/flush", func(w http.ResponseWriter, r *http.Request) {
		ts.eng.Flush()
		writeOK(w)
	})
	ts.srv = httptest.NewServer(mux)
	t.Cleanup(ts.srv.Close)
	return ts
}

func writeOK(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}`))
}

func (ts *testShard) tenant(r *http.Request) *engine.Tenant {
	name := r.URL.Query().Get("tenant")
	if name == "" {
		name = engine.DefaultTenant
	}
	return ts.eng.Tenant(name)
}

func (ts *testShard) handleStreams(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name   string `json:"name"`
		Domain uint64 `json:"domain"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := ts.tenant(r).DeclareStream(req.Name, req.Domain); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeOK(w)
}

func (ts *testShard) handleQueries(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name  string `json:"name"`
		Agg   string `json:"agg"`
		Left  struct{ Stream string }
		Right struct{ Stream string }
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	agg := engine.Count
	if req.Agg == "SUM" {
		agg = engine.Sum
	}
	spec := engine.QuerySpec{
		Name: req.Name, Agg: agg,
		Left:  engine.Side{Stream: req.Left.Stream},
		Right: engine.Side{Stream: req.Right.Stream},
	}
	if err := ts.tenant(r).RegisterQuery(spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeOK(w)
}

func (ts *testShard) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if n := ts.saturate429.Load(); n > 0 && ts.saturate429.CompareAndSwap(n, n-1) {
		w.Header().Set("Retry-After", strconv.Itoa(ts.satHint))
		http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if key != "" {
		ts.mu.Lock()
		applied, seen := ts.applied[key]
		ts.mu.Unlock()
		if seen {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"applied": applied, "deduplicated": true})
			return
		}
	}
	var batch []testUpdate
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tn := ts.tenant(r)
	byStream := make(map[string][]stream.Update)
	for _, u := range batch {
		weight := int64(1)
		if u.Weight != nil {
			weight = *u.Weight
		}
		byStream[u.Stream] = append(byStream[u.Stream], stream.Update{Value: u.Value, Weight: weight})
	}
	for name, ups := range byStream {
		if err := tn.IngestBatch(name, ups); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	ts.updates.Add(int64(len(batch)))
	if key != "" {
		ts.mu.Lock()
		ts.applied[key] = int64(len(batch))
		ts.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]int{"applied": len(batch)})
}

func (ts *testShard) handleSketch(w http.ResponseWriter, r *http.Request) {
	ts.sketchCalls.Add(1)
	if n := ts.sketch429.Load(); n > 0 && ts.sketch429.CompareAndSwap(n, n-1) {
		w.Header().Set("Retry-After", strconv.Itoa(ts.satHint))
		http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
		return
	}
	qs, err := ts.tenant(r).QuerySketches(r.URL.Query().Get("query"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	agg := AggCount
	if qs.Agg == engine.Sum {
		agg = AggSum
	}
	blob, err := EncodePayload(&Payload{
		Agg: agg, Domain: qs.Domain,
		LeftEpoch: qs.LeftEpoch, RightEpoch: qs.RightEpoch,
		Left: qs.Left, Right: qs.Right,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(blob)
}

// cluster boots n test shards plus a merger over them.
type testCluster struct {
	shards []*testShard
	merger *Merger
	srv    *httptest.Server
}

func newTestCluster(t *testing.T, n int, opts MergerOptions) *testCluster {
	t.Helper()
	tc := &testCluster{}
	cfg := Config{}
	for i := 0; i < n; i++ {
		sh := newTestShard(t)
		tc.shards = append(tc.shards, sh)
		cfg.Shards = append(cfg.Shards, Shard{Name: fmt.Sprintf("s%d", i), Addr: sh.srv.URL})
	}
	if opts.Retry == (distributed.Backoff{}) {
		opts.Retry = distributed.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Attempts: 2, Jitter: 0}
	}
	if opts.Timeout == 0 {
		opts.Timeout = 2 * time.Second
	}
	m, err := NewMerger(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.merger = m
	tc.srv = httptest.NewServer(m)
	t.Cleanup(tc.srv.Close)
	return tc
}

func (tc *testCluster) post(t *testing.T, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(tc.srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func (tc *testCluster) mustPost(t *testing.T, path, body string) {
	t.Helper()
	resp := tc.post(t, path, body)
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
}

// registerSchema declares streams F, G and the COUNT query q through
// the merger broadcast path, so every shard ends up schema-identical.
func (tc *testCluster) registerSchema(t *testing.T) {
	t.Helper()
	tc.mustPost(t, "/streams", `{"name":"F","domain":1024}`)
	tc.mustPost(t, "/streams", `{"name":"G","domain":1024}`)
	tc.mustPost(t, "/queries", `{"name":"q","agg":"COUNT","left":{"stream":"F"},"right":{"stream":"G"}}`)
}

// testUpdate is one element of a JSON /update body.
type testUpdate struct {
	Tenant string `json:"tenant,omitempty"`
	Stream string `json:"stream"`
	Value  uint64 `json:"value"`
	Weight *int64 `json:"weight,omitempty"`
}

// seededBatch is the deterministic workload the bit-identity tests
// ingest: skewed on F, mildly weighted on G.
func seededBatch(n int) []testUpdate {
	w2 := int64(2)
	batch := make([]testUpdate, 0, 2*n)
	for i := 0; i < n; i++ {
		v := uint64(i*i%512 + i%7)
		batch = append(batch, testUpdate{Stream: "F", Value: v})
		batch = append(batch, testUpdate{Stream: "G", Value: uint64((i*13 + 5) % 512), Weight: &w2})
	}
	return batch
}

func marshalBatch(t *testing.T, batch []testUpdate) string {
	t.Helper()
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type answerResp struct {
	Query    string `json:"query"`
	Agg      string `json:"agg"`
	Estimate int64  `json:"estimate"`
	Shards   struct {
		Answered int      `json:"answered"`
		Of       int      `json:"of"`
		Missing  []string `json:"missing"`
	} `json:"shards"`
	Confidence struct {
		Coverage      float64 `json:"coverage"`
		ErrorWidening float64 `json:"errorWidening"`
		Degraded      bool    `json:"degraded"`
	} `json:"confidence"`
	Error string `json:"error"`
}

func (tc *testCluster) answer(t *testing.T, wantStatus int) answerResp {
	t.Helper()
	resp, err := http.Get(tc.srv.URL + "/answer?query=q")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("/answer status %d, want %d", resp.StatusCode, wantStatus)
	}
	var ar answerResp
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// referenceEngine ingests the same batch into one engine — the
// single-node ground truth the cluster answer must match bit-for-bit.
func referenceEngine(t *testing.T, batch []testUpdate) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Options{SketchConfig: testCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DeclareStream("F", 1024); err != nil {
		t.Fatal(err)
	}
	if err := eng.DeclareStream("G", 1024); err != nil {
		t.Fatal(err)
	}
	err = eng.RegisterQuery(engine.QuerySpec{Name: "q", Agg: engine.Count,
		Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range batch {
		weight := int64(1)
		if u.Weight != nil {
			weight = *u.Weight
		}
		if err := eng.Update(u.Stream, u.Value, weight); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestMergerHealthyBitIdentical is the linearity property as a
// multi-process system: a 3-shard cluster answer over hash-routed
// ingest equals a single node over the same stream exactly.
func TestMergerHealthyBitIdentical(t *testing.T) {
	tc := newTestCluster(t, 3, MergerOptions{})
	tc.registerSchema(t)
	batch := seededBatch(400)
	tc.mustPost(t, "/update", marshalBatch(t, batch))

	// Every shard must have received a share (the routing test proper is
	// elsewhere; this guards against the merger collapsing to one shard).
	for i, sh := range tc.shards {
		if sh.updates.Load() == 0 {
			t.Fatalf("shard %d received no updates", i)
		}
	}

	ref := referenceEngine(t, batch)
	want, err := ref.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	ar := tc.answer(t, http.StatusOK)
	if ar.Estimate != want.Estimate {
		t.Fatalf("cluster estimate %d != single-node estimate %d", ar.Estimate, want.Estimate)
	}
	if ar.Shards.Answered != 3 || ar.Shards.Of != 3 || len(ar.Shards.Missing) != 0 {
		t.Fatalf("healthy answer reports %+v", ar.Shards)
	}
	if ar.Confidence.Degraded || ar.Confidence.Coverage != 1 || ar.Confidence.ErrorWidening != 1 {
		t.Fatalf("healthy answer reports degraded confidence %+v", ar.Confidence)
	}
}

// TestMergerDegradedKilledShard kills one shard mid-run and asserts the
// degraded contract: /answer still succeeds, reports the shard
// coverage, and its estimate equals merging the SURVIVING shards'
// sketches exactly — no more, no less.
func TestMergerDegradedKilledShard(t *testing.T) {
	tc := newTestCluster(t, 3, MergerOptions{})
	tc.registerSchema(t)
	batch := seededBatch(400)
	tc.mustPost(t, "/update", marshalBatch(t, batch))

	const killed = 1
	tc.shards[killed].srv.Close()

	ar := tc.answer(t, http.StatusOK)
	if ar.Shards.Answered != 2 || ar.Shards.Of != 3 {
		t.Fatalf("degraded answer reports %d/%d shards, want 2/3", ar.Shards.Answered, ar.Shards.Of)
	}
	if len(ar.Shards.Missing) != 1 || ar.Shards.Missing[0] != "s1" {
		t.Fatalf("missing shards = %v, want [s1]", ar.Shards.Missing)
	}
	if !ar.Confidence.Degraded {
		t.Fatal("degraded answer not flagged degraded")
	}
	if ar.Confidence.Coverage <= 0.6 || ar.Confidence.Coverage >= 0.7 {
		t.Fatalf("coverage = %v, want 2/3", ar.Confidence.Coverage)
	}
	if ar.Confidence.ErrorWidening != 1.5 {
		t.Fatalf("errorWidening = %v, want 1.5", ar.Confidence.ErrorWidening)
	}

	// Exactness: merge the two surviving shard engines' sketches by hand
	// and estimate — the cluster's degraded number must match it.
	var lefts, rights []*core.HashSketch
	for i, sh := range tc.shards {
		if i == killed {
			continue
		}
		qs, err := sh.eng.Tenant(engine.DefaultTenant).QuerySketches("q")
		if err != nil {
			t.Fatal(err)
		}
		lefts = append(lefts, qs.Left)
		rights = append(rights, qs.Right)
	}
	mergedL, err := distributed.Merge(lefts...)
	if err != nil {
		t.Fatal(err)
	}
	mergedR, err := distributed.Merge(rights...)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateJoin(mergedL, mergedR, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Estimate != est.Total {
		t.Fatalf("degraded estimate %d != survivors' merged estimate %d", ar.Estimate, est.Total)
	}
}

// TestMergerAllShardsDown: zero answering shards is the one case that
// IS an error — 503 with a Retry-After hint, not a fabricated zero.
func TestMergerAllShardsDown(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	tc.registerSchema(t)
	for _, sh := range tc.shards {
		sh.srv.Close()
	}
	resp, err := http.Get(tc.srv.URL + "/answer?query=q")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}

// TestMergerPullRetriesBusyShard: a shard answering 429 to the first
// pull is retried (with its Retry-After hint flooring the delay) and
// the answer comes back healthy, not degraded.
func TestMergerPullRetriesBusyShard(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{
		Retry: distributed.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 3, Jitter: 0},
	})
	tc.registerSchema(t)
	tc.mustPost(t, "/update", marshalBatch(t, seededBatch(50)))
	tc.shards[0].satHint = 0 // keep the hint tiny so the test stays fast
	tc.shards[0].sketch429.Store(1)
	ar := tc.answer(t, http.StatusOK)
	if ar.Shards.Answered != 2 || ar.Confidence.Degraded {
		t.Fatalf("busy shard was not retried: %+v", ar.Shards)
	}
	if calls := tc.shards[0].sketchCalls.Load(); calls < 2 {
		t.Fatalf("shard 0 saw %d pull attempts, want >= 2", calls)
	}
}

// TestMergerUpdateRejectPropagates: a saturated shard turns the whole
// batch into a 429 with the shard's Retry-After hint (nothing may be
// assumed applied; the client retries the batch under the same key).
func TestMergerUpdateRejectPropagates(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	tc.registerSchema(t)
	tc.shards[0].satHint = 7
	tc.shards[0].saturate429.Store(1)
	tc.shards[1].satHint = 7
	tc.shards[1].saturate429.Store(1)
	req, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/update", bytes.NewReader([]byte(marshalBatch(t, seededBatch(20)))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "harness:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 7 {
		t.Fatalf("Retry-After = %q, want >= 7 (the shard hint)", resp.Header.Get("Retry-After"))
	}

	// Retrying the same batch under the same key converges to
	// exactly-once: the shard that already applied dedupes, the
	// saturated one applies.
	req2, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/update", bytes.NewReader([]byte(marshalBatch(t, seededBatch(20)))))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Idempotency-Key", "harness:1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d, want 200", resp2.StatusCode)
	}
	ref := referenceEngine(t, seededBatch(20))
	want, err := ref.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	ar := tc.answer(t, http.StatusOK)
	if ar.Estimate != want.Estimate {
		t.Fatalf("estimate after retry %d != exactly-once reference %d (double apply?)", ar.Estimate, want.Estimate)
	}
}

func TestDeriveKey(t *testing.T) {
	cases := []struct {
		client string
		seq    uint64
		want   string
	}{
		{"client", 42, "client.s3:42"},
		{"a.b:c", 9, "a.b:c.s3:9"}, // a client ID may itself contain ':'
		{"", 5, ""},
	}
	for _, tc := range cases {
		if got := deriveKey(tc.client, tc.seq, 3); got != tc.want {
			t.Errorf("deriveKey(%q, %d, 3) = %q, want %q", tc.client, tc.seq, got, tc.want)
		}
	}
}

// TestMergerMalformedKeyRefused: a malformed Idempotency-Key is a 400
// that reaches no shard, rather than a keyless (at-least-once) forward.
func TestMergerMalformedKeyRefused(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	tc.registerSchema(t)
	for _, key := range []string{"nocolon", ":5", "client:", "client:x"} {
		req, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/update", bytes.NewReader([]byte(marshalBatch(t, seededBatch(20)))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("key %q: status %d, want 400", key, resp.StatusCode)
		}
	}
	for i, sh := range tc.shards {
		if n := sh.updates.Load(); n != 0 {
			t.Fatalf("shard %d applied %d updates from refused requests", i, n)
		}
	}
}

// TestMergerDivergedRingRefused: when shards disagree on a query's
// metadata, /sketch refuses with 500 just like /answer, instead of
// merging under the first shard's domain.
func TestMergerDivergedRingRefused(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	for i, sh := range tc.shards {
		domain := uint64(1024 << i)
		if err := sh.eng.DeclareStream("F", domain); err != nil {
			t.Fatal(err)
		}
		if err := sh.eng.DeclareStream("G", domain); err != nil {
			t.Fatal(err)
		}
		if err := sh.eng.RegisterQuery(engine.QuerySpec{Name: "q", Agg: engine.Count,
			Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/sketch?query=q", "/answer?query=q"} {
		resp, err := http.Get(tc.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s on a diverged ring: status %d, want 500", path, resp.StatusCode)
		}
	}
}

// TestMergerJSONFrameParity: one batch sent as JSON /update and as an
// SKSP frame lands identically on every shard.
func TestMergerJSONFrameParity(t *testing.T) {
	batch := seededBatch(200)
	viaJSON := newTestCluster(t, 3, MergerOptions{})
	viaJSON.registerSchema(t)
	viaJSON.mustPost(t, "/update", marshalBatch(t, batch))

	viaFrame := newTestCluster(t, 3, MergerOptions{})
	viaFrame.registerSchema(t)
	conn := wclient.New(startForwarder(t, viaFrame.merger), wclient.Options{ClientID: "parity"})
	defer conn.Close()
	if _, err := conn.Send(context.Background(), "", batchGroups(batch)); err != nil {
		t.Fatal(err)
	}
	for i := range viaJSON.shards {
		j, f := viaJSON.shards[i].updates.Load(), viaFrame.shards[i].updates.Load()
		if j != f {
			t.Fatalf("shard %d applied %d updates via JSON, %d via SKSP", i, j, f)
		}
	}
}

// startForwarder serves m's SKSP ingress on a loopback port until the
// test ends and returns its address.
func startForwarder(t *testing.T, m *Merger) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fwd := NewStreamForwarder(m, ln)
	serveErr := make(chan error, 1)
	go func() { serveErr <- fwd.Serve() }()
	t.Cleanup(func() {
		fwd.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("forwarder serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// batchGroups groups a seeded batch into the SKSP frame it stands for.
func batchGroups(batch []testUpdate) []stream.Group {
	groups := []stream.Group{{Name: "F"}, {Name: "G"}}
	for _, u := range batch {
		weight := int64(1)
		if u.Weight != nil {
			weight = *u.Weight
		}
		gi := 0
		if u.Stream == "G" {
			gi = 1
		}
		groups[gi].Updates = append(groups[gi].Updates, stream.Update{Value: u.Value, Weight: weight})
	}
	return groups
}

// TestMergerEpochCache: with a non-zero epoch the second answer is
// served from cache (no new pulls); with epoch 0 every answer re-pulls.
func TestMergerEpochCache(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{Epoch: time.Hour})
	tc.registerSchema(t)
	tc.mustPost(t, "/update", marshalBatch(t, seededBatch(50)))
	first := tc.answer(t, http.StatusOK)
	pulls := tc.shards[0].sketchCalls.Load()
	second := tc.answer(t, http.StatusOK)
	if tc.shards[0].sketchCalls.Load() != pulls {
		t.Fatal("cached answer re-pulled the shards inside the epoch")
	}
	if first.Estimate != second.Estimate {
		t.Fatal("cached answer changed the estimate")
	}
}

// TestStreamForwarderEndToEnd drives the merger's SKSP ingress with the
// real wire client: frames are hash-routed to the shards over HTTP, a
// REJECTed frame is resent by the client and converges to exactly-once
// via the derived per-shard keys, and the final cluster answer matches
// the single-node reference bit-for-bit.
func TestStreamForwarderEndToEnd(t *testing.T) {
	tc := newTestCluster(t, 3, MergerOptions{})
	tc.registerSchema(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fwd := NewStreamForwarder(tc.merger, ln)
	serveErr := make(chan error, 1)
	go func() { serveErr <- fwd.Serve() }()
	defer func() {
		fwd.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("forwarder serve: %v", err)
		}
	}()

	// One shard rejects its first /update: the client must see a REJECT
	// for the whole frame and resend it.
	tc.shards[0].satHint = 0
	tc.shards[0].saturate429.Store(1)

	batch := seededBatch(200)
	groups := batchGroups(batch)
	conn := wclient.New(ln.Addr().String(), wclient.Options{
		ClientID: "sksp-test",
		Backoff:  distributed.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 10, Jitter: 0},
	})
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := conn.Send(ctx, "", groups)
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != int64(len(batch)) {
		t.Fatalf("ACK applied %d, want %d", out.Applied, len(batch))
	}
	if out.Rejected429 == 0 {
		t.Fatal("saturated shard produced no REJECT; fault injection broke")
	}

	ref := referenceEngine(t, batch)
	want, err := ref.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	ar := tc.answer(t, http.StatusOK)
	if ar.Estimate != want.Estimate {
		t.Fatalf("SKSP-ingested cluster estimate %d != reference %d (replay double-applied?)", ar.Estimate, want.Estimate)
	}
}
