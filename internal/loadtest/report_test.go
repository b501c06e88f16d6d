package loadtest

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sampleResult builds a result with internally consistent accounting.
func sampleResult() *Result {
	res := &Result{
		Config: Config{
			BaseURL: "http://127.0.0.1:0", Streams: []string{"F", "G"},
			Shape: "zipf:1.0", Domain: 1 << 16, Seed: 42,
			Workers: 4, Batch: 256, QueueDepth: 64,
		},
		Elapsed: 2 * time.Second,
		Ingest: SideResult{
			Requests: 100, Updates: 24_000, Rejected429: 3, Retries: 3,
		},
	}
	res.Server.Ingest.UpdatesEnqueued = 24_000
	res.Server.Ingest.UpdatesApplied = 24_000
	res.Server.Ingest.Rejected = 3
	return res
}

// TestReportRoundTrip: build → write → read → validate.
func TestReportRoundTrip(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	rep := IngestReport(sampleResult(), now)
	if err := rep.Validate(); err != nil {
		t.Fatalf("fresh report invalid: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("reread report invalid: %v", err)
	}
	if back.Schema != BenchSchema || back.Kind != "ingest" || back.Updates != 24_000 {
		t.Fatalf("identity fields lost: %+v", back)
	}
}

// TestReportValidateRejects: each schema violation is caught with a
// message naming the field.
func TestReportValidateRejects(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name    string
		mutate  func(*BenchReport)
		errWant string
	}{
		{"schema", func(r *BenchReport) { r.Schema = "skimsketch-bench/1" }, "schema"},
		{"kind", func(r *BenchReport) { r.Kind = "query" }, "kind"},
		{"timestamp", func(r *BenchReport) { r.GeneratedAt = "yesterday" }, "generatedAt"},
		{"elapsed", func(r *BenchReport) { r.ElapsedSeconds = 0 }, "elapsed"},
		{"negativeCount", func(r *BenchReport) { r.Retries = -1 }, "negative"},
		{"serverEcho", func(r *BenchReport) { r.Server = nil }, "server"},
		{"updatesApplied", func(r *BenchReport) { r.Server.UpdatesApplied = r.Updates - 1 }, "updatesApplied"},
		{"tenantRow", func(r *BenchReport) {
			r.Tenants = []TenantRecon{{Tenant: "t0", UpdatesSent: 5, ServerUpdates: 4}}
		}, "tenant t0"},
		{"tenantSum", func(r *BenchReport) {
			r.Tenants = []TenantRecon{{Tenant: "t0", UpdatesSent: 5, ServerUpdates: 5}}
		}, "per-tenant"},
	}
	for _, tc := range cases {
		r := IngestReport(sampleResult(), now)
		tc.mutate(r)
		err := r.Validate()
		if err == nil {
			t.Errorf("%s: mutation accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errWant)
		}
	}
}

// TestValidateUnwrapsParseError: the generatedAt failure wraps the
// time.Parse error with %w so callers can errors.As it.
func TestValidateUnwrapsParseError(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	r := IngestReport(sampleResult(), now)
	r.GeneratedAt = "yesterday"
	err := r.Validate()
	if err == nil {
		t.Fatal("bad generatedAt accepted")
	}
	var pe *time.ParseError
	if !errors.As(err, &pe) {
		t.Errorf("error %q does not unwrap to *time.ParseError", err)
	}
}
