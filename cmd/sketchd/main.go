// Command sketchd serves the stream query-processing engine over HTTP:
// declare streams, register continuous join-aggregate queries, push
// updates, and read approximate answers — the paper's Figure 1
// architecture as a network service.
//
//	sketchd -addr :8080 -tables 7 -buckets 2048 -seed 42
//
// With -ingest.workers N (N > 0) updates are ingested through the
// engine's concurrent batched pipeline: batches are decoded, grouped by
// stream, and enqueued to N shard workers over bounded queues
// (-ingest.batch and -ingest.queue size them); /answer, /stats and
// /snapshot drain the pipeline first, so reads always observe every
// previously accepted update. When every queue slot is full, /update
// sheds load with 429 + Retry-After instead of blocking (the rejection
// counter is in /stats under ingest.rejected).
//
// With -query.workers N the estimation behind /answer runs on N
// goroutines (-1 = one per CPU) with bit-identical answers; /answer
// clones the synopses and estimates outside the engine locks, so a slow
// answer never stalls ingestion, and repeated answers with no
// intervening updates are served from an epoch-keyed cache.
//
// With -checkpoint.dir the engine state (and the range predicates
// needed to restore it) is persisted crash-safely: restored at boot,
// saved every -checkpoint.interval, and saved once more on shutdown.
// SIGINT/SIGTERM trigger a graceful exit — stop accepting connections,
// drain in-flight requests and the ingest pipeline, write the final
// checkpoint, exit 0 — so `kill -TERM` during active ingestion loses
// nothing. Because sketches are linear, a restored checkpoint plus a
// replayed tail is bit-identical to uninterrupted ingestion. See
// docs/OPERATIONS.md for the full lifecycle contract.
//
// Cluster mode (-role, docs/OPERATIONS.md "Cluster mode"): shards are
// ordinary sketchds named in a static JSON membership file; a merger
// (`-role=merger -cluster.config ring.json`) serves the same API,
// hash-routing ingest across the ring (HTTP and SKSP both), keeping
// registrations schema-uniform by broadcast, and answering global
// /answer by pulling each shard's slim /sketch payload and merging
// through sketch linearity. A dead shard degrades the answer (reported
// shard coverage + widened confidence) instead of failing it.
//
// Every piece of state is scoped to a tenant namespace. The flat API
// below operates on the "default" tenant, so single-tenant deployments
// are unaffected; prefix any path with /t/{tenant}/ (or add ?tenant= /
// a "tenant" body field) to scope it. All tenants share one ingest
// pipeline and one sketch configuration; per-tenant quotas on synopsis
// memory and ingest queue share (-tenant.max-synopsis-words,
// -tenant.max-pending-updates, or per-tenant via POST /tenants) reject
// over-quota requests with 429 + Retry-After. Standing watches
// (/watches) raise hysteresis alerts on watched query estimates,
// evaluated on demand or every -watch.interval.
//
// API (JSON bodies, JSON responses; all but /healthz, /tenants and
// /flush also under /t/{tenant}/...):
//
//	POST   /streams     {"name":"F","domain":262144}
//	POST   /predicates  {"name":"small","min":0,"max":4095}     (value range)
//	POST   /queries     {"name":"q","agg":"COUNT",
//	                     "left":{"stream":"F","predicate":"small"},
//	                     "right":{"stream":"G","windowLen":100000,"windowBuckets":4}}
//	DELETE /queries/q
//	POST   /update      {"stream":"F","value":7,"weight":1}
//	                    or a JSON array of such objects (batch)
//	GET    /answer?query=q
//	GET    /sketch?query=q  (slim SKSL cluster payload: both synopses + metadata)
//	POST   /flush       (drain the ingest pipeline; shared, drains all tenants)
//	GET    /healthz     (readiness: 200 serving, 503 draining)
//	GET    /stats       (global + per-tenant; scoped: one tenant's slice)
//	GET    /snapshot    (checkpoint: engine state as JSON; scoped: one tenant)
//	POST   /restore     (load a snapshot into an empty engine/tenant)
//	GET    /tenants     (list tenants with quotas and counters)
//	POST   /tenants     {"name":"acme","quota":{"maxSynopsisWords":65536,
//	                     "maxPendingUpdates":100000}}
//	GET    /watches     (list standing watches)
//	POST   /watches     {"query":"q","high":1000000,"low":900000}
//	DELETE /watches/q
//	POST   /watches/evaluate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"skimsketch/internal/checkpoint"
	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/monitor"
	"skimsketch/internal/wire"
)

// options collects every flag so run is testable without a flag set.
type options struct {
	addr       string
	streamAddr string
	tables     int
	buckets    int
	seed       uint64
	workers    int
	batch      int
	queue      int
	qworkers   int

	role           string
	clusterConfig  string
	clusterEpoch   time.Duration
	clusterTimeout time.Duration

	tenantMaxWords   int
	tenantMaxPending int64
	watchInterval    time.Duration

	checkpointDir      string
	checkpointInterval time.Duration

	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	shutdownTimeout   time.Duration
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("sketchd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.streamAddr, "listen.stream", "", "SKSP binary streaming ingest listen address (empty = disabled); see docs/FORMATS.md")
	fs.IntVar(&o.tables, "tables", 7, "default sketch tables d")
	fs.IntVar(&o.buckets, "buckets", 2048, "default sketch buckets b")
	fs.Uint64Var(&o.seed, "seed", 42, "default sketch seed")
	fs.IntVar(&o.workers, "ingest.workers", 0, "concurrent ingest shard workers (0 = synchronous ingestion)")
	fs.IntVar(&o.batch, "ingest.batch", 256, "max updates per queued ingest batch")
	fs.IntVar(&o.queue, "ingest.queue", 64, "per-worker ingest queue capacity in batches")
	fs.IntVar(&o.qworkers, "query.workers", 0, "estimation goroutines per /answer (0 or 1 = sequential, -1 = one per CPU); answers are bit-identical for every setting")
	fs.StringVar(&o.role, "role", "single", "process role: single (standalone), shard (cluster member; same server, conventionally with -checkpoint.dir), or merger (routes ingest across -cluster.config shards and answers global joins)")
	fs.StringVar(&o.clusterConfig, "cluster.config", "", "merger: path to the static JSON membership file {\"shards\":[{\"name\":...,\"addr\":\"http://...\"}]}")
	fs.DurationVar(&o.clusterEpoch, "cluster.epoch", 0, "merger: pull-cache TTL — global answers younger than this are served without re-pulling shard sketches (0 = pull fresh every answer)")
	fs.DurationVar(&o.clusterTimeout, "cluster.timeout", 5*time.Second, "merger: deadline on every cross-node call (routing, pulls, broadcasts)")
	fs.IntVar(&o.tenantMaxWords, "tenant.max-synopsis-words", 0, "default per-tenant synopsis memory quota in sketch words (0 = unlimited); override per tenant via POST /tenants")
	fs.Int64Var(&o.tenantMaxPending, "tenant.max-pending-updates", 0, "default per-tenant ingest queue-share quota in pending updates (0 = unlimited); override per tenant via POST /tenants")
	fs.DurationVar(&o.watchInterval, "watch.interval", 0, "periodic standing-watch evaluation interval (0 = evaluate only via POST /watches/evaluate)")
	fs.StringVar(&o.checkpointDir, "checkpoint.dir", "", "directory for crash-safe checkpoints (empty = no persistence)")
	fs.DurationVar(&o.checkpointInterval, "checkpoint.interval", 30*time.Second, "periodic checkpoint interval (0 = only the final checkpoint on shutdown)")
	fs.DurationVar(&o.readHeaderTimeout, "http.read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	fs.DurationVar(&o.writeTimeout, "http.write-timeout", 60*time.Second, "http.Server WriteTimeout; bound it above the slowest expected /answer")
	fs.DurationVar(&o.idleTimeout, "http.idle-timeout", 120*time.Second, "http.Server IdleTimeout for keep-alive connections")
	fs.DurationVar(&o.shutdownTimeout, "shutdown.timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
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
		log.Fatal("sketchd: ", err)
	}
}

// run dispatches on role: single and shard are the same standalone
// server lifecycle (a shard IS a sketchd — the cluster layer above it
// is schema broadcasts, hash-routed ingest, and /sketch pulls); merger
// runs the stateless routing/merging tier from internal/cluster.
func run(ctx context.Context, opts options, out io.Writer) error {
	switch opts.role {
	case "", "single", "shard":
		return runNode(ctx, opts, out)
	case "merger":
		return runMerger(ctx, opts, out)
	default:
		return fmt.Errorf("unknown -role %q: want single, shard, or merger", opts.role)
	}
}

// runMerger is the merger lifecycle: load the static membership ring,
// serve the routing/merging API until ctx is canceled, then drain.
// The merger holds no sketch state — shards own persistence — so its
// shutdown is just a connection drain.
func runMerger(ctx context.Context, opts options, out io.Writer) error {
	if opts.clusterConfig == "" {
		return errors.New("-role=merger requires -cluster.config")
	}
	cfg, err := cluster.LoadConfig(opts.clusterConfig)
	if err != nil {
		return err
	}
	m, err := cluster.NewMerger(cfg, cluster.MergerOptions{
		Timeout: opts.clusterTimeout,
		Epoch:   opts.clusterEpoch,
	})
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           m,
		ReadHeaderTimeout: opts.readHeaderTimeout,
		WriteTimeout:      opts.writeTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sketchd merger listening on %s (%d shards, epoch %s, timeout %s)\n",
		ln.Addr(), len(cfg.Shards), opts.clusterEpoch, opts.clusterTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// SKSP ingress: same binary protocol as a single node, frames
	// hash-routed across the ring.
	var fwd *wire.Server
	streamErr := make(chan error, 1)
	if opts.streamAddr != "" {
		sln, err := net.Listen("tcp", opts.streamAddr)
		if err != nil {
			return err
		}
		fwd = cluster.NewStreamForwarder(m, sln)
		fmt.Fprintf(out, "sketchd sksp forwarder on %s (%d shards)\n", sln.Addr(), len(cfg.Shards))
		go func() { streamErr <- fwd.Serve() }()
	}

	select {
	case err := <-serveErr:
		return err
	case err := <-streamErr:
		return fmt.Errorf("sksp forwarder: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "sketchd merger shutting down")
	m.SetDraining()
	shCtx, cancel := context.WithTimeout(context.Background(), opts.shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Print("sketchd: merger shutdown grace period expired: ", err)
		httpSrv.Close()
	}
	<-serveErr
	if fwd != nil {
		fwd.Shutdown()
	}
	return nil
}

// runNode is the whole standalone/shard server lifecycle: build the
// engine, restore the newest checkpoint, serve until ctx is canceled
// (the signal handler), then shut down gracefully — stop the listener,
// drain in-flight requests, drain and stop the ingest pipeline, write
// the final checkpoint. A nil return is a clean exit (process status 0).
func runNode(ctx context.Context, opts options, out io.Writer) error {
	eng, err := engine.New(engine.Options{
		SketchConfig: core.Config{Tables: opts.tables, Buckets: opts.buckets, Seed: opts.seed},
		QueryWorkers: opts.qworkers,
		DefaultQuota: engine.Quota{
			MaxSynopsisWords:  opts.tenantMaxWords,
			MaxPendingUpdates: opts.tenantMaxPending,
		},
	})
	if err != nil {
		return err
	}
	srv := newServer(eng)

	// Restore before the ingest pipeline starts and before the listener
	// opens: Engine.Restore requires an empty, quiescent engine.
	var mgr *checkpoint.Manager
	if opts.checkpointDir != "" {
		mgr, err = checkpoint.NewManager(opts.checkpointDir)
		if err != nil {
			return err
		}
		switch path, err := mgr.Load(srv.readCheckpoint); {
		case err == nil:
			fmt.Fprintf(out, "sketchd restored checkpoint %s\n", path)
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			fmt.Fprintf(out, "sketchd starting fresh (no checkpoint in %s)\n", opts.checkpointDir)
		default:
			return err
		}
	}

	if opts.workers > 0 {
		err := eng.StartIngest(engine.IngestConfig{
			Workers:    opts.workers,
			BatchSize:  opts.batch,
			QueueDepth: opts.queue,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "sketchd ingest pipeline: %d workers, batch %d, queue %d\n", opts.workers, opts.batch, opts.queue)
	}

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: opts.readHeaderTimeout,
		WriteTimeout:      opts.writeTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sketchd listening on %s (default sketch %dx%d)\n", ln.Addr(), opts.tables, opts.buckets)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// The SKSP binary ingest listener shares the engine, the dedupe
	// window, and the shutdown drain with the HTTP front end.
	streamErr := make(chan error, 1)
	if opts.streamAddr != "" {
		sln, err := net.Listen("tcp", opts.streamAddr)
		if err != nil {
			return err
		}
		srv.stream = newStreamServer(srv, sln)
		fmt.Fprintf(out, "sketchd sksp listener on %s\n", sln.Addr())
		go func() { streamErr <- srv.stream.Serve() }()
	}

	// Periodic checkpoints, stopped (and awaited) before the final save
	// so the two writers never interleave on the shutdown path.
	var cpWG sync.WaitGroup
	cpCtx, cpCancel := context.WithCancel(ctx)
	defer cpCancel()
	if mgr != nil && opts.checkpointInterval > 0 {
		cpWG.Add(1)
		go func() {
			defer cpWG.Done()
			mgr.Run(cpCtx, opts.checkpointInterval, srv.writeCheckpoint, func(err error) {
				log.Print("sketchd: periodic checkpoint: ", err)
			})
		}()
	}

	// Periodic standing-watch evaluation: every tick answers each watched
	// query (cache-served when its synopses are unchanged) and runs the
	// alert state machines, logging transitions. Shares the checkpointer's
	// quiesce point so no evaluation runs during the shutdown drain.
	if opts.watchInterval > 0 {
		cpWG.Add(1)
		go func() {
			defer cpWG.Done()
			ticker := time.NewTicker(opts.watchInterval)
			defer ticker.Stop()
			// Log only state flips, not every tick spent in alert: compare
			// each watch's cumulative transition count against the last tick.
			lastTransitions := make(map[monitor.WatchKey]int64)
			for {
				select {
				case <-cpCtx.Done():
					return
				case <-ticker.C:
					sts, err := eng.EvaluateAllWatches()
					if err != nil {
						log.Print("sketchd: watch evaluation: ", err)
						continue
					}
					for _, st := range sts {
						key := monitor.WatchKey{Tenant: st.Tenant, Query: st.Query}
						if st.Transitions != lastTransitions[key] {
							lastTransitions[key] = st.Transitions
							state := "cleared"
							if st.State == monitor.Alert {
								state = "raised"
							}
							log.Printf("sketchd: watch %s/%s %s: estimate %d vs band [low %d, high %d]",
								st.Tenant, st.Query, state, st.LastEstimate, st.Low, st.High)
						}
					}
				}
			}
		}()
	}

	select {
	case err := <-serveErr:
		// The listener died on its own — not a requested shutdown.
		return err
	case err := <-streamErr:
		return fmt.Errorf("sksp listener: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "sketchd shutting down")
	// Flip readiness first: /healthz now answers 503, steering load
	// balancers and harnesses away while in-flight requests drain.
	srv.draining.Store(true)

	// 1. Stop accepting connections and drain in-flight requests.
	shCtx, cancel := context.WithTimeout(context.Background(), opts.shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		// Stragglers past the grace period are cut off; their updates were
		// either fully accepted (and will be flushed below) or rejected.
		log.Print("sketchd: shutdown grace period expired: ", err)
		httpSrv.Close()
	}
	<-serveErr // Serve has returned (http.ErrServerClosed)

	// Drain the SKSP listener after the HTTP one: stop accepting, close
	// every session (handlers finish their in-flight frame), wait. Every
	// ACKed frame is now in the ingest queues for the Flush below;
	// un-ACKed frames will be replayed by their clients on reconnect.
	if srv.stream != nil {
		srv.stream.Shutdown()
	}

	// 2. Quiesce the periodic checkpointer, then drain the ingest
	// pipeline so every accepted update is folded into its synopsis.
	cpCancel()
	cpWG.Wait()
	eng.Flush()
	eng.StopIngest()

	// 3. Final checkpoint: the state a restarted sketchd resumes from,
	// bit-identical to what this process would have answered.
	if mgr != nil {
		if err := mgr.Save(srv.writeCheckpoint); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Fprintf(out, "sketchd final checkpoint written to %s\n", mgr.CurrentPath())
	}
	return nil
}
