package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/httpapi"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 128, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(b)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func TestFullHTTPWorkflow(t *testing.T) {
	ts := testServer(t)

	// Declare streams.
	if code, _ := do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 1024}); code != 201 {
		t.Fatalf("declare F: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/streams", map[string]any{"name": "G", "domain": 1024}); code != 201 {
		t.Fatalf("declare G: %d", code)
	}
	// Register a query.
	if code, body := do(t, "POST", ts.URL+"/queries", map[string]any{
		"name": "q", "agg": "COUNT",
		"left":  map[string]any{"stream": "F"},
		"right": map[string]any{"stream": "G"},
	}); code != 201 {
		t.Fatalf("register query: %d %v", code, body)
	}
	// Push a batch and a single update.
	batch := []map[string]any{
		{"stream": "F", "value": 7, "weight": 10},
		{"stream": "G", "value": 7, "weight": 4},
	}
	if code, body := do(t, "POST", ts.URL+"/update", batch); code != 200 || body["applied"].(float64) != 2 {
		t.Fatalf("batch update: %d %v", code, body)
	}
	if code, body := do(t, "POST", ts.URL+"/update", map[string]any{"stream": "G", "value": 7}); code != 200 || body["applied"].(float64) != 1 {
		t.Fatalf("single update: %d %v", code, body)
	}
	// Answer: f_7 = 10, g_7 = 5 → 50.
	code, body := do(t, "GET", ts.URL+"/answer?query=q", nil)
	if code != 200 {
		t.Fatalf("answer: %d %v", code, body)
	}
	if est := body["estimate"].(float64); est != 50 {
		t.Fatalf("estimate = %v, want 50", est)
	}
	if body["agg"].(string) != "COUNT" {
		t.Fatalf("agg = %v", body["agg"])
	}
	// Stats.
	code, body = do(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if body["queries"].(float64) != 1 || body["synopses"].(float64) != 2 {
		t.Fatalf("stats: %v", body)
	}
	// Listings.
	if _, body := do(t, "GET", ts.URL+"/queries", nil); len(body["queries"].([]any)) != 1 {
		t.Fatalf("queries listing: %v", body)
	}
	if _, body := do(t, "GET", ts.URL+"/streams", nil); len(body["streams"].([]any)) != 2 {
		t.Fatalf("streams listing: %v", body)
	}
	// Delete the query.
	if code, _ := do(t, "DELETE", ts.URL+"/queries/q", nil); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/answer?query=q", nil); code != 404 {
		t.Fatalf("answer after delete: %d", code)
	}
}

func TestPredicateAndSumOverHTTP(t *testing.T) {
	ts := testServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "subs", "domain": 64})
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "sales", "domain": 64})
	if code, _ := do(t, "POST", ts.URL+"/predicates", map[string]any{"name": "low", "min": 0, "max": 9}); code != 201 {
		t.Fatal("predicate registration failed")
	}
	if code, body := do(t, "POST", ts.URL+"/queries", map[string]any{
		"name": "rev", "agg": "SUM",
		"left":  map[string]any{"stream": "subs", "predicate": "low"},
		"right": map[string]any{"stream": "sales"},
	}); code != 201 {
		t.Fatalf("register: %d %v", code, body)
	}
	do(t, "POST", ts.URL+"/update", []map[string]any{
		{"stream": "subs", "value": 5},
		{"stream": "subs", "value": 20}, // filtered by predicate
		{"stream": "sales", "value": 5, "weight": 300},
		{"stream": "sales", "value": 20, "weight": 999},
	})
	_, body := do(t, "GET", ts.URL+"/answer?query=rev", nil)
	if est := body["estimate"].(float64); est != 300 {
		t.Fatalf("SUM estimate = %v, want 300 (value 20 filtered on the left)", est)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		method, path string
		body         any
		wantCode     int
	}{
		{"GET", "/predicates", nil, 405},
		{"POST", "/streams", map[string]any{"name": "", "domain": 0}, 400},
		{"PUT", "/streams", nil, 405},
		{"POST", "/predicates", map[string]any{"name": "bad", "min": 9, "max": 1}, 400},
		{"POST", "/queries", map[string]any{"name": "q", "agg": "AVG"}, 400},
		{"POST", "/queries", map[string]any{"name": "q", "left": map[string]any{"stream": "missing"}, "right": map[string]any{"stream": "missing"}}, 400},
		{"PATCH", "/queries", nil, 405},
		{"GET", "/queries/x", nil, 405},
		{"DELETE", "/queries/", nil, 400},
		{"DELETE", "/queries/missing", nil, 404},
		{"GET", "/update", nil, 405},
		{"POST", "/update", "notanupdate", 400},
		{"POST", "/update", map[string]any{"stream": "missing", "value": 1}, 400},
		{"POST", "/answer", nil, 405},
		{"GET", "/answer", nil, 400},
		{"GET", "/answer?query=missing", nil, 404},
		{"POST", "/stats", nil, 405},
	}
	for _, c := range cases {
		code, _ := do(t, c.method, ts.URL+c.path, c.body)
		if code != c.wantCode {
			t.Fatalf("%s %s: got %d, want %d", c.method, c.path, code, c.wantCode)
		}
	}
}

func TestWindowedQueryOverHTTP(t *testing.T) {
	ts := testServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64})
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "G", "domain": 64})
	if code, body := do(t, "POST", ts.URL+"/queries", map[string]any{
		"name": "w",
		"left": map[string]any{"stream": "F", "windowLen": 100, "windowBuckets": 4},
		"right": map[string]any{
			"stream": "G"},
	}); code != 201 {
		t.Fatalf("register windowed: %d %v", code, body)
	}
	// Old F mass expires.
	var batch []map[string]any
	for i := 0; i < 80; i++ {
		batch = append(batch, map[string]any{"stream": "F", "value": 7})
	}
	do(t, "POST", ts.URL+"/update", batch)
	batch = batch[:0]
	for i := 0; i < 400; i++ {
		batch = append(batch, map[string]any{"stream": "F", "value": float64(i%32 + 32)})
	}
	do(t, "POST", ts.URL+"/update", batch)
	do(t, "POST", ts.URL+"/update", map[string]any{"stream": "G", "value": 7, "weight": 100})
	_, body := do(t, "GET", ts.URL+"/answer?query=w", nil)
	if est := body["estimate"].(float64); est > 1500 {
		t.Fatalf("windowed estimate %v; early mass should have expired", est)
	}
}

func TestSnapshotRestoreOverHTTP(t *testing.T) {
	ts := testServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64})
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "G", "domain": 64})
	do(t, "POST", ts.URL+"/queries", map[string]any{
		"name": "q",
		"left": map[string]any{"stream": "F"}, "right": map[string]any{"stream": "G"},
	})
	do(t, "POST", ts.URL+"/update", []map[string]any{
		{"stream": "F", "value": 7, "weight": 6},
		{"stream": "G", "value": 7, "weight": 5},
	})
	// Fetch the snapshot.
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("snapshot: %d %v", resp.StatusCode, err)
	}
	// Restore into a fresh server and re-ask.
	ts2 := testServer(t)
	resp, err = http.Post(ts2.URL+"/restore", "application/json", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("restore status %d", resp.StatusCode)
	}
	_, body := do(t, "GET", ts2.URL+"/answer?query=q", nil)
	if est := body["estimate"].(float64); est != 30 {
		t.Fatalf("restored estimate = %v, want 30", est)
	}
	// Restore into a non-empty server fails.
	if code, _ := do(t, "POST", ts2.URL+"/restore", map[string]any{"version": 1}); code != 400 {
		t.Fatalf("second restore: %d", code)
	}
	// Method checks.
	if code, _ := do(t, "POST", ts.URL+"/snapshot", map[string]any{}); code != 405 {
		t.Fatal("snapshot must be GET")
	}
	if code, _ := do(t, "GET", ts2.URL+"/restore", nil); code != 405 {
		t.Fatal("restore must be POST")
	}
}

func TestBadJSONBody(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/streams", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestParseIdempotencyKeyUnwraps: a non-numeric seq wraps the strconv
// error with %w so handlers can errors.As to *strconv.NumError.
func TestParseIdempotencyKeyUnwraps(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/update", nil)
	r.Header.Set("Idempotency-Key", "client-1:notanumber")
	_, err := httpapi.DecodeUpdates(r, "")
	if err == nil {
		t.Fatal("malformed seq accepted")
	}
	var ne *strconv.NumError
	if !errors.As(err, &ne) {
		t.Errorf("error %q does not unwrap to *strconv.NumError", err)
	}
}
