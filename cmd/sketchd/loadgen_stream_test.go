package main

import (
	"context"
	"net"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/loadtest"
)

// TestLoadHarnessSkimpProto is the SKSP mirror of the HTTP harness
// reconciliation test: a real sketchd with BOTH listeners up, the load
// harness driving the binary protocol (Proto: skimp) across two tenant
// namespaces, and exact reconciliation afterwards — every update the
// harness got an ACK for is in the engine, in the right tenant, and the
// /stats stream counters agree with the client's accounting.
func TestLoadHarnessSkimpProto(t *testing.T) {
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 3, Buckets: 256, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"t0", "t1"}
	for _, name := range tenants {
		tn := eng.Tenant(name)
		for _, s := range []string{"F", "G"} {
			if err := tn.DeclareStream(s, 1<<12); err != nil {
				t.Fatal(err)
			}
		}
		// A registered query gives each stream a synopsis; without one the
		// engine admits updates but counts nothing as applied (nothing
		// listens), which would void the reconciliation below.
		if err := tn.RegisterQuery(engine.QuerySpec{
			Name: "q", Agg: engine.Count,
			Left:  engine.Side{Stream: "F"},
			Right: engine.Side{Stream: "G"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 2, BatchSize: 64, QueueDepth: 64}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopIngest()

	// Both front ends share one server value, hence one dedupe window.
	srv := newServer(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.stream = newStreamServer(srv, ln)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.stream.Serve() }()
	defer func() { srv.stream.Shutdown(); <-done }()

	const totalUpdates = 6000
	cfg := loadtest.Config{
		BaseURL:      ts.URL,
		Streams:      []string{"F", "G"},
		Shape:        "zipf:1.0",
		Domain:       1 << 12,
		Seed:         42,
		Tenants:      len(tenants),
		Workers:      3,
		Batch:        100,
		QueueDepth:   128,
		TotalUpdates: totalUpdates,
		Proto:        loadtest.ProtoSkimp,
		StreamAddr:   ln.Addr().String(),
		Client:       loadtest.Client{Backoff: fastClientBackoff()},
	}
	res, err := loadtest.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingest.Errors != 0 {
		t.Fatalf("permanent errors over SKSP: %d", res.Ingest.Errors)
	}
	if got := res.Ingest.Updates + res.Ingest.Shed; got != totalUpdates {
		t.Fatalf("accepted %d + shed %d = %d, want %d", res.Ingest.Updates, res.Ingest.Shed, got, totalUpdates)
	}
	if res.Ingest.Updates != res.Server.Ingest.UpdatesApplied {
		t.Fatalf("client ACKed %d but engine applied %d", res.Ingest.Updates, res.Server.Ingest.UpdatesApplied)
	}
	// Per-tenant isolation holds over the binary path too.
	var tenantSum int64
	for _, tr := range res.Tenants {
		if tr.UpdatesSent != tr.ServerUpdates {
			t.Fatalf("tenant %s: client %d != server %d", tr.Tenant, tr.UpdatesSent, tr.ServerUpdates)
		}
		tenantSum += tr.ServerUpdates
	}
	if tenantSum != res.Ingest.Updates {
		t.Fatalf("tenant counters sum to %d, client ACKed %d", tenantSum, res.Ingest.Updates)
	}
	// The listener's own counters saw the traffic.
	st := srv.stream.Stats()
	if got := st.Updates; got != res.Ingest.Updates {
		t.Fatalf("stream listener counted %d updates, client ACKed %d", got, res.Ingest.Updates)
	}
	if st.Frames == 0 || st.ConnsTotal == 0 {
		t.Fatal("stream listener saw no frames/connections")
	}

	// The BENCH report round-trips with the protocol echoed.
	rep := loadtest.IngestReport(res, time.Now())
	if rep.Config.Proto != loadtest.ProtoSkimp {
		t.Fatalf("report proto %q, want %q", rep.Config.Proto, loadtest.ProtoSkimp)
	}
	path := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	if err := loadtest.WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := loadtest.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Config.Proto != loadtest.ProtoSkimp {
		t.Fatalf("round-tripped proto %q", back.Config.Proto)
	}
}
