package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"skimsketch/internal/loadtest"
)

// fakeTarget is a minimal sketchd stand-in for exercising the binary's
// run path without booting an engine. Like sketchd, it folds an update
// in (updatesApplied) only once a query gives the stream a synopsis.
type fakeTarget struct {
	mu       sync.Mutex
	enqueued int64
	applied  int64
	declared map[string]bool
	// queries holds the registered query names as "tenant/name" ("" is
	// the default tenant).
	queries map[string]bool
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{declared: map[string]bool{}, queries: map[string]bool{}}
}

// register records one declaration under its tenant, answering 409 for
// a repeat as sketchd does.
func (f *fakeTarget) register(set map[string]bool, dupErr string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Name string }
		json.NewDecoder(r.Body).Decode(&req)
		key := r.PathValue("tenant") + "/" + req.Name
		f.mu.Lock()
		defer f.mu.Unlock()
		if set[key] {
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(map[string]string{"error": dupErr})
			return
		}
		set[key] = true
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	}
}

// registered reports whether the query key ("tenant/name") was
// registered.
func (f *fakeTarget) registered(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queries[key]
}

func (f *fakeTarget) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
	})
	for _, prefix := range []string{"", "/t/{tenant}"} {
		mux.HandleFunc(prefix+"/streams", f.register(f.declared, "engine: stream already declared"))
		mux.HandleFunc(prefix+"/queries", f.register(f.queries, "engine: query already registered"))
	}
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		var batch []loadtest.Update
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.enqueued += int64(len(batch))
		if len(f.queries) > 0 {
			f.applied += int64(len(batch))
		}
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]int{"applied": len(batch)})
	})
	mux.HandleFunc("/flush", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"ingest": map[string]any{
				"updatesEnqueued": f.enqueued, "updatesApplied": f.applied, "rejected": 0,
			},
		})
	})
	return mux
}

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.workers != 4 || o.batch != 256 || o.queue != 64 {
		t.Fatalf("ingest defaults changed: %+v", o)
	}
	if o.duration != 10*time.Second || o.shape != "zipf:1.0" {
		t.Fatalf("run defaults changed: %+v", o)
	}
	cfg := o.config()
	if len(cfg.Streams) != 2 || cfg.Streams[0] != "F" || cfg.Streams[1] != "G" {
		t.Fatalf("default streams parsed as %v", cfg.Streams)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunEndToEnd drives the binary's run path against a fake target:
// declare (twice — the second run must tolerate existing declarations),
// push a fixed burst, and check the emitted report passes the binary's
// own -validate gate.
func TestRunEndToEnd(t *testing.T) {
	fake := newFakeTarget()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	dir := t.TempDir()

	args := []string{
		"-target", ts.URL, "-declare",
		"-updates", "2000", "-seed", "7", "-domain", "1024",
		"-ingest.workers", "2", "-ingest.batch", "50", "-ingest.queue", "32",
		"-out", dir,
	}
	for i := 0; i < 2; i++ {
		opts, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := run(context.Background(), opts, &buf); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, buf.String())
		}
	}

	ingestPath := filepath.Join(dir, "BENCH_ingest.json")
	opts, err := parseFlags([]string{"-validate", ingestPath})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run(context.Background(), opts, &buf); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(buf.String(), "ok (") {
		t.Fatalf("validate output missing the per-file line:\n%s", buf.String())
	}
}

// TestDeclareRegistersQuery: -declare registers the COUNT join query q
// on its own, with no query flag, so the run's updates reach a synopsis
// and the report's updates == server.updatesApplied; with -tenants it
// does so in every tenant it declares.
func TestDeclareRegistersQuery(t *testing.T) {
	fake := newFakeTarget()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	dir := t.TempDir()
	opts, err := parseFlags([]string{
		"-target", ts.URL, "-declare", "-updates", "1000", "-domain", "256", "-out", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run(context.Background(), opts, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !fake.registered("/q") {
		t.Fatal("-declare registered no query q")
	}
	rep, err := loadtest.ReadReport(filepath.Join(dir, "BENCH_ingest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updates == 0 || rep.Updates != rep.Server.UpdatesApplied {
		t.Fatalf("updates %d, server updatesApplied %d: want equal and nonzero", rep.Updates, rep.Server.UpdatesApplied)
	}

	cfg := opts.config()
	cfg.Tenants = 2
	if err := declareWorkload(context.Background(), &loadtest.Client{BaseURL: ts.URL}, cfg, &buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"t0/q", "t1/q"} {
		if !fake.registered(key) {
			t.Errorf("query %s not registered", key)
		}
	}
}

// TestValidateRejects: the gate fails on garbage, on schema-invalid
// reports, and on valid-looking reports with zero traffic.
func TestValidateRejects(t *testing.T) {
	dir := t.TempDir()

	garbage := filepath.Join(dir, "garbage.json")
	os.WriteFile(garbage, []byte("not json"), 0o644)
	if err := validateReports(garbage, &strings.Builder{}); err == nil {
		t.Fatal("garbage accepted")
	}

	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"schema":"skimsketch-bench/1","kind":"ingest"}`), 0o644)
	if err := validateReports(empty, &strings.Builder{}); err == nil {
		t.Fatal("schema-invalid report accepted")
	}

	if err := validateReports("", &strings.Builder{}); err == nil {
		t.Fatal("empty file list accepted")
	}
}
