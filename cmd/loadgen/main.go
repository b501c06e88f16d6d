// Command loadgen is the exact-reconciliation driver for sketchd: an
// open-loop generator (token-bucket arrivals that never slow down when
// the server does) feeding concurrent ingest workers over JSON HTTP or
// SKSP (-proto), honoring the server's 429/Retry-After backpressure
// contract. After the run it flushes the server and writes
// BENCH_ingest.json (schema in docs/FORMATS.md): the client's
// acknowledged updates beside the server's own counters, in total and
// per tenant (-tenants), which must agree exactly.
//
//	loadgen -target http://127.0.0.1:8080 -declare -updates 40000 -out DIR
//
// -declare declares the streams and registers the COUNT join query q in
// every tenant it drives, so every acknowledged update is folded into a
// synopsis. With -validate FILE[,FILE...] loadgen instead checks that
// each file is a schema-valid report whose counts reconcile.
//
// loadgen measures no speed: throughput and latency are perfbench's
// (perfbench/run.sh, BENCHMARK.json).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"skimsketch/internal/loadtest"
)

// options collects every flag so run is testable without a flag set.
type options struct {
	target   string
	streams  string
	declare  bool
	domain   uint64
	shape    string
	seed     int64
	rate     float64
	duration time.Duration
	updates  int64
	workers  int
	batch    int
	queue    int
	tenants  int
	proto    string
	streamAd string
	idem     bool
	outDir   string
	validate string
	waitFor  time.Duration
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.StringVar(&o.target, "target", "http://127.0.0.1:8080", "sketchd base URL")
	fs.StringVar(&o.streams, "streams", "F,G", "comma-separated stream names to drive round-robin")
	fs.BoolVar(&o.declare, "declare", false, "declare the streams and register the COUNT join query "+queryName+" before the run; existing declarations are tolerated")
	fs.Uint64Var(&o.domain, "domain", 1<<16, "stream domain [0, domain)")
	fs.StringVar(&o.shape, "shape", "zipf:1.0", `workload shape: "uniform", "zipf", "zipf:Z", optional "+shift:S"`)
	fs.Int64Var(&o.seed, "seed", 42, "workload generator seed (runs are reproducible per seed)")
	fs.Float64Var(&o.rate, "rate", 0, "target arrival rate in updates/sec (0 = unpaced, as fast as the queue drains)")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "run length (ignored when -updates > 0)")
	fs.Int64Var(&o.updates, "updates", 0, "stop after exactly this many generated updates instead of -duration")
	fs.IntVar(&o.workers, "ingest.workers", 4, "concurrent ingest sender goroutines")
	fs.IntVar(&o.batch, "ingest.batch", 256, "updates per /update request")
	fs.IntVar(&o.queue, "ingest.queue", 64, "client-side queue depth in batches (full queue = open-loop shed)")
	fs.IntVar(&o.tenants, "tenants", 0, "fan the run out across N tenant namespaces (t0..tN-1), each batch's tenant drawn from the seeded workload shape; reports carry exact per-tenant reconciliation (0 or 1 = single default tenant)")
	fs.StringVar(&o.proto, "proto", "json", `ingest protocol: "json" (HTTP /update) or "skimp" (SKSP binary streaming; needs -stream.addr)`)
	fs.StringVar(&o.streamAd, "stream.addr", "", "sketchd -listen.stream host:port for -proto=skimp")
	fs.BoolVar(&o.idem, "idempotency", true, "stamp JSON /update batches with Idempotency-Key headers so retries after lost responses cannot double-apply (skimp frames always carry one)")
	fs.StringVar(&o.outDir, "out", ".", "directory for the BENCH_ingest.json report")
	fs.StringVar(&o.validate, "validate", "", "comma-separated BENCH_ingest.json files to validate instead of running")
	fs.DurationVar(&o.waitFor, "wait", 10*time.Second, "how long to wait for the target's /healthz before giving up")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, os.Stdout); err != nil {
		log.Fatal("loadgen: ", err)
	}
}

// config assembles the harness configuration from the flags.
func (o options) config() loadtest.Config {
	cfg := loadtest.Config{
		BaseURL:      strings.TrimRight(o.target, "/"),
		Shape:        o.shape,
		Domain:       o.domain,
		Seed:         o.seed,
		Rate:         o.rate,
		Workers:      o.workers,
		Batch:        o.batch,
		QueueDepth:   o.queue,
		Duration:     o.duration,
		TotalUpdates: o.updates,
		Tenants:      o.tenants,
		Proto:        o.proto,
		StreamAddr:   o.streamAd,
	}
	if o.idem {
		cfg.Client.Idem = loadtest.NewIdemSource("")
	}
	for _, s := range strings.Split(o.streams, ",") {
		if s = strings.TrimSpace(s); s != "" {
			cfg.Streams = append(cfg.Streams, s)
		}
	}
	if o.updates > 0 {
		cfg.Duration = 0
	}
	return cfg
}

// run executes one harness invocation: validate mode, or wait-ready →
// declare → run → BENCH_ingest.json.
func run(ctx context.Context, opts options, out io.Writer) error {
	if opts.validate != "" {
		return validateReports(opts.validate, out)
	}
	cfg := opts.config()
	client := &loadtest.Client{BaseURL: cfg.BaseURL}

	waitCtx, cancel := context.WithTimeout(ctx, opts.waitFor)
	err := client.WaitReady(waitCtx)
	cancel()
	if err != nil {
		return err
	}

	if opts.declare {
		if err := declareWorkload(ctx, client, cfg, out); err != nil {
			return err
		}
	}

	res, err := loadtest.Run(ctx, cfg)
	if err != nil {
		return err
	}
	ingest := loadtest.IngestReport(res, time.Now())
	ingestPath := filepath.Join(opts.outDir, "BENCH_ingest.json")
	if err := loadtest.WriteReport(ingestPath, ingest); err != nil {
		return err
	}
	fmt.Fprintf(out, "loadgen ingest [%s]: %d updates acked, %d applied by the server (%d requests, %d x 429, %d retries, %d shed, %d errors) -> %s\n",
		cfg.Proto, ingest.Updates, ingest.Server.UpdatesApplied, ingest.Requests, ingest.Rejected429,
		ingest.Retries, ingest.Shed, ingest.Errors, ingestPath)
	for _, t := range res.Tenants {
		status := "reconciled"
		if t.UpdatesSent != t.ServerUpdates {
			status = "MISMATCH"
		}
		fmt.Fprintf(out, "loadgen tenant %s: client %d / server %d updates (%s), %d rejected by quota\n",
			t.Tenant, t.UpdatesSent, t.ServerUpdates, status, t.ServerRejected)
	}
	if res.Ingest.Errors > 0 {
		return fmt.Errorf("run finished with %d permanent ingest errors", res.Ingest.Errors)
	}
	return nil
}

// queryName is the COUNT join query -declare registers, the name
// perfbench registers too.
const queryName = "q"

// declareWorkload declares the run's streams and registers the COUNT
// join query over them, tolerating declarations that already exist so
// repeated runs against a warm server work. The query is what makes a
// synopsis exist: without it no update is folded in and the report's
// updates == server.updatesApplied identity fails. With -tenants N the
// same setup is repeated in every tenant namespace (plus the default
// tenant). One stream joins itself; more than two would leave the rest
// without a synopsis.
func declareWorkload(ctx context.Context, client *loadtest.Client, cfg loadtest.Config, out io.Writer) error {
	if n := len(cfg.Streams); n == 0 || n > 2 {
		return fmt.Errorf("-declare joins one or two streams in query %s, have %d", queryName, n)
	}
	left, right := cfg.Streams[0], cfg.Streams[len(cfg.Streams)-1]
	clients := []*loadtest.Client{client}
	for _, name := range loadtest.TenantNames(cfg.Tenants) {
		clients = append(clients, client.ForTenant(name))
	}
	for _, c := range clients {
		label := ""
		if c.Tenant != "" {
			label = " [" + c.Tenant + "]"
		}
		for _, s := range cfg.Streams {
			err := c.DeclareStream(ctx, s, cfg.Domain)
			switch {
			case err == nil:
				fmt.Fprintf(out, "loadgen declared stream %s%s (domain %d)\n", s, label, cfg.Domain)
			case strings.Contains(err.Error(), "already declared"):
			default:
				return err
			}
		}
		err := c.RegisterCountQuery(ctx, queryName, left, right)
		switch {
		case err == nil:
			fmt.Fprintf(out, "loadgen registered query %s%s = COUNT(%s join %s)\n", queryName, label, left, right)
		case strings.Contains(err.Error(), "already registered"):
		default:
			return err
		}
	}
	return nil
}

// validateReports is the reconciliation gate of the integration
// scripts: every named file must be a schema-valid BENCH report whose
// counts reconcile, with nonzero traffic.
func validateReports(list string, out io.Writer) error {
	var checked int
	for _, path := range strings.Split(list, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		rep, err := loadtest.ReadReport(path)
		if err != nil {
			return err
		}
		if err := rep.Validate(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rep.Updates == 0 {
			return fmt.Errorf("%s: ingest report with zero updates", path)
		}
		fmt.Fprintf(out, "loadgen validate %s: ok (%d updates reconciled)\n", path, rep.Updates)
		checked++
	}
	if checked == 0 {
		return errors.New("-validate: no files named")
	}
	return nil
}
