package loadtest

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// BenchSchema identifies the BENCH_ingest.json layout; bump on
// breaking change and keep docs/FORMATS.md in lockstep.
const BenchSchema = "skimsketch-bench/2"

// ConfigEcho is the run configuration echoed into a report so a BENCH
// file is self-describing.
type ConfigEcho struct {
	BaseURL    string   `json:"baseURL"`
	Streams    []string `json:"streams"`
	Shape      string   `json:"shape"`
	Domain     uint64   `json:"domain"`
	Seed       int64    `json:"seed"`
	Rate       float64  `json:"rate"`
	Workers    int      `json:"workers"`
	Batch      int      `json:"batch"`
	QueueDepth int      `json:"queueDepth"`
	Tenants    int      `json:"tenants,omitempty"`
	Proto      string   `json:"proto,omitempty"`
}

func echoConfig(c Config) ConfigEcho {
	return ConfigEcho{
		BaseURL: c.BaseURL, Streams: c.Streams, Shape: c.Shape,
		Domain: c.Domain, Seed: c.Seed, Rate: c.Rate,
		Workers: c.Workers, Batch: c.Batch, QueueDepth: c.QueueDepth,
		Tenants: c.Tenants, Proto: c.Proto,
	}
}

// ServerEcho is the server-side view embedded in a report: the engine's
// exact ingest counters over the run, fetched from /stats after a
// flush. It is the reconciliation anchor: updates == updatesApplied.
type ServerEcho struct {
	UpdatesEnqueued  int64 `json:"updatesEnqueued"`
	UpdatesApplied   int64 `json:"updatesApplied"`
	RejectedRequests int64 `json:"rejectedRequests"`
}

// BenchReport is one BENCH_ingest.json document: the client's accounting
// of an ingest run beside the server's, so the two reconcile exactly.
// Performance figures belong to perfbench, not here.
type BenchReport struct {
	Schema      string     `json:"schema"`
	Kind        string     `json:"kind"` // always "ingest"
	GeneratedAt string     `json:"generatedAt"`
	GitSHA      string     `json:"gitSHA,omitempty"`
	Config      ConfigEcho `json:"config"`

	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// Requests counts send attempts; Updates counts acknowledged stream
	// elements. Updates must stay the first "updates" key in the
	// document: shell gates read it with a first-match sed.
	Requests    int64       `json:"requests"`
	Updates     int64       `json:"updates"`
	Rejected429 int64       `json:"rejected429"`
	Retries     int64       `json:"retries"`
	Errors      int64       `json:"errors"`
	Shed        int64       `json:"shed"`
	Server      *ServerEcho `json:"server"`
	// Tenants carries the per-tenant reconciliation rows of a
	// multi-tenant run; Validate requires every row's client and server
	// update counts to match exactly.
	Tenants []TenantRecon `json:"tenants,omitempty"`
}

// IngestReport builds the BENCH_ingest.json document for a run.
func IngestReport(res *Result, now time.Time) *BenchReport {
	side := res.Ingest
	return &BenchReport{
		Schema:      BenchSchema,
		Kind:        "ingest",
		GeneratedAt: now.UTC().Format(time.RFC3339),
		GitSHA:      GitSHA(),
		Config:      echoConfig(res.Config),

		ElapsedSeconds: res.Elapsed.Seconds(),
		Requests:       side.Requests,
		Updates:        side.Updates,
		Rejected429:    side.Rejected429,
		Retries:        side.Retries,
		Errors:         side.Errors,
		Shed:           side.Shed,
		Server: &ServerEcho{
			UpdatesEnqueued:  res.Server.Ingest.UpdatesEnqueued,
			UpdatesApplied:   res.Server.Ingest.UpdatesApplied,
			RejectedRequests: res.Server.Ingest.Rejected,
		},
		Tenants: res.Tenants,
	}
}

// Validate checks a report against the documented schema: identity
// fields, non-negative counters, and the exact reconciliation of the
// client's acknowledged updates with the server's applied updates, in
// total and tenant by tenant. It is what `loadgen -validate` runs.
func (r *BenchReport) Validate() error {
	if r.Schema != BenchSchema {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, BenchSchema)
	}
	if r.Kind != "ingest" {
		return fmt.Errorf("bench: unknown kind %q", r.Kind)
	}
	if _, err := time.Parse(time.RFC3339, r.GeneratedAt); err != nil {
		return fmt.Errorf("bench: bad generatedAt: %w", err)
	}
	if r.ElapsedSeconds <= 0 {
		return fmt.Errorf("bench: elapsedSeconds %v not positive", r.ElapsedSeconds)
	}
	for name, v := range map[string]int64{
		"requests": r.Requests, "updates": r.Updates,
		"rejected429": r.Rejected429, "retries": r.Retries,
		"errors": r.Errors, "shed": r.Shed,
	} {
		if v < 0 {
			return fmt.Errorf("bench: negative %s %d", name, v)
		}
	}
	if r.Server == nil {
		return fmt.Errorf("bench: ingest report missing server echo")
	}
	// Every acknowledged update must have been folded into a synopsis.
	// A run whose updates reached no registered query reads 0 here.
	if r.Updates != r.Server.UpdatesApplied {
		return fmt.Errorf("bench: client acked %d updates but server updatesApplied is %d",
			r.Updates, r.Server.UpdatesApplied)
	}
	// Multi-tenant runs must reconcile exactly, tenant by tenant: every
	// acknowledged update appears in its own tenant's counters and only
	// there. (A cross-tenant routing bug shows up as paired mismatches.)
	var tenantUpdates int64
	for _, t := range r.Tenants {
		if t.UpdatesSent != t.ServerUpdates {
			return fmt.Errorf("bench: tenant %s: client acked %d updates but server counted %d",
				t.Tenant, t.UpdatesSent, t.ServerUpdates)
		}
		if t.ServerRejected < 0 {
			return fmt.Errorf("bench: tenant %s: negative rejected delta %d", t.Tenant, t.ServerRejected)
		}
		tenantUpdates += t.UpdatesSent
	}
	if len(r.Tenants) > 0 && tenantUpdates != r.Updates {
		return fmt.Errorf("bench: per-tenant updates sum to %d but the run acked %d", tenantUpdates, r.Updates)
	}
	return nil
}

// WriteReport writes the report as indented JSON (trailing newline,
// diff-friendly) to path.
func WriteReport(path string, r *BenchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads and parses one BENCH_ingest.json file (it does not
// validate; callers chain .Validate()).
func ReadReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &r, nil
}

// GitSHA best-effort resolves the repo HEAD for report provenance;
// empty when git or the repo is unavailable (reports stay valid).
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
