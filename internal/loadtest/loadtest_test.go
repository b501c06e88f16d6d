package loadtest

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/distributed"
	"skimsketch/internal/stats"
)

// fakeSketchd mimics the sketchd HTTP surface the harness touches, with
// a programmable 429 pattern: every rejectEvery-th /update request is
// shed (0 = never), exactly like the real server — before anything is
// applied, with a Retry-After hint.
type fakeSketchd struct {
	mu          sync.Mutex
	rejectEvery int64
	retryAfter  string

	requests int64 // /update requests seen
	applied  int64 // updates folded in
	rejected int64 // 429 responses issued
}

func (f *fakeSketchd) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.requests++
		if f.rejectEvery > 0 && f.requests%f.rejectEvery == 0 {
			f.rejected++
			ra := f.retryAfter
			if ra == "" {
				ra = "0"
			}
			w.Header().Set("Retry-After", ra)
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "full"})
			return
		}
		var batch []Update
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		f.applied += int64(len(batch))
		json.NewEncoder(w).Encode(map[string]int{"applied": len(batch)})
	})
	mux.HandleFunc("/flush", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"ingest": map[string]any{
				"updatesEnqueued": f.applied,
				"updatesApplied":  f.applied,
				"rejected":        f.rejected,
			},
		})
	})
	return mux
}

func (f *fakeSketchd) snapshot() (requests, applied, rejected int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests, f.applied, f.rejected
}

// fastBackoff keeps retry sleeps microscopic in tests.
func fastBackoff() distributed.Backoff {
	return distributed.Backoff{
		Base: 100 * time.Microsecond, Max: time.Millisecond,
		Rand: rand.New(rand.NewSource(1)),
	}
}

// TestRunReconcilesAgainstFake: every update the harness reports
// accepted was applied exactly once, every 429 it observed was a
// server-side rejection, and its request count matches the requests the
// server saw — the accounting identity the real reconciliation test
// (cmd/sketchd) re-checks against a live engine.
func TestRunReconcilesAgainstFake(t *testing.T) {
	fake := &fakeSketchd{rejectEvery: 5}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:      ts.URL,
		Streams:      []string{"F", "G"},
		Shape:        "uniform",
		Domain:       1024,
		Seed:         7,
		Workers:      3,
		Batch:        50,
		QueueDepth:   16,
		TotalUpdates: 5000,
		Client:       Client{Backoff: fastBackoff()},
	})
	if err != nil {
		t.Fatal(err)
	}
	requests, applied, rejected := fake.snapshot()
	if res.Ingest.Errors != 0 {
		t.Fatalf("unexpected permanent errors: %d", res.Ingest.Errors)
	}
	if res.Ingest.Updates != applied {
		t.Fatalf("client accepted %d updates, server applied %d", res.Ingest.Updates, applied)
	}
	if res.Ingest.Rejected429 != rejected {
		t.Fatalf("client saw %d rejections, server issued %d", res.Ingest.Rejected429, rejected)
	}
	if res.Ingest.Requests != requests {
		t.Fatalf("client made %d requests, server counted %d", res.Ingest.Requests, requests)
	}
	// Open loop: generated = delivered + shed; deliveries were 5000 - shed.
	if got := res.Ingest.Updates + res.Ingest.Shed; got != 5000 {
		t.Fatalf("accepted %d + shed %d = %d, want 5000", res.Ingest.Updates, res.Ingest.Shed, got)
	}
	if rejected == 0 {
		t.Fatal("fake never rejected; the 429 path was not exercised")
	}
	// The server echo in the result is the per-run delta.
	if res.Server.Ingest.UpdatesApplied != applied || res.Server.Ingest.Rejected != rejected {
		t.Fatalf("server echo %+v does not match fake counters", res.Server)
	}
}

// TestSendUpdatesRetries429: a burst of 429s delays but never drops or
// duplicates a batch — the jittered backoff retries until acceptance.
func TestSendUpdatesRetries429(t *testing.T) {
	fake := &fakeSketchd{rejectEvery: 1} // reject every request...
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	// ...until the pattern disarms after 3 rejections.
	go func() {
		for {
			fake.mu.Lock()
			if fake.rejected >= 3 {
				fake.rejectEvery = 0
				fake.mu.Unlock()
				return
			}
			fake.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	c := &Client{BaseURL: ts.URL, Backoff: fastBackoff()}
	var hist stats.Histogram
	batch := []Update{{Stream: "F", Value: 1}, {Stream: "F", Value: 2}}
	out, err := c.SendUpdates(context.Background(), batch, &hist)
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 2 {
		t.Fatalf("applied %d, want 2", out.Applied)
	}
	if out.Rejected429 < 3 {
		t.Fatalf("saw %d rejections, want >= 3", out.Rejected429)
	}
	if out.Attempts != out.Rejected429+1 {
		t.Fatalf("attempts %d != rejections %d + 1 success", out.Attempts, out.Rejected429)
	}
	if hist.Count() != out.Attempts {
		t.Fatalf("histogram %d samples for %d attempts", hist.Count(), out.Attempts)
	}
	if _, applied, _ := fake.snapshot(); applied != 2 {
		t.Fatalf("server applied %d, want exactly 2 (no double count)", applied)
	}
}

// TestSendUpdatesPermanentError: a 400 aborts immediately instead of
// retrying a request that can never succeed.
func TestSendUpdatesPermanentError(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown stream"})
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, Backoff: fastBackoff()}
	if _, err := c.SendUpdates(context.Background(), []Update{{Stream: "nope", Value: 1}}, nil); err == nil {
		t.Fatal("expected error")
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("made %d requests, want 1 (no retry on 4xx)", n)
	}
}

// TestTokenBucketPacing: a rate-limited run accepts roughly rate×time
// updates, far below what the unpaced fake could absorb.
func TestTokenBucketPacing(t *testing.T) {
	fake := &fakeSketchd{}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	cfg := Config{
		BaseURL:  ts.URL,
		Streams:  []string{"F"},
		Shape:    "uniform",
		Domain:   64,
		Workers:  2,
		Batch:    10,
		Rate:     2000, // updates/sec
		Duration: 300 * time.Millisecond,
		Client:   Client{Backoff: fastBackoff()},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Generous bounds — CI boxes stall — but far below the >100k updates
	// an unpaced 300ms run pushes through this fake.
	if res.Ingest.Updates > 3000 {
		t.Fatalf("rate 2000/s for 300ms accepted %d updates; token bucket not pacing", res.Ingest.Updates)
	}
	if res.Ingest.Updates == 0 {
		t.Fatal("rate-limited run accepted nothing")
	}
}

// TestConfigValidation: unrunnable configs fail fast with a reason.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                    // no URL
		{BaseURL: "http://x"}, // no streams
		{BaseURL: "http://x", Streams: []string{"F"}}, // no bound
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
