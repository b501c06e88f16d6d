// Command perfbench is the repository benchmark. It launches real
// sketchd processes, drives one named workload against them for a
// measured window, checks the answers, and prints every metric by name
// with its unit. perfbench/run.sh builds sketchd and this program from
// source and runs it from the repository root:
//
//	bash perfbench/run.sh --workload skimp-ingest --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one untraced run.
// With --trace 1 it makes an untraced and a traced run of the workload,
// then replays the workload's inputs in process through each layer's
// public functions, and reports the per-layer metrics; the spans go to
// a gzipped JSON-lines file. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics. The
// exit status is 0 only when every correctness gate passed.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runTimeout bounds a whole invocation, so a wedged server fails the
// run instead of hanging it.
const runTimeout = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sketchd  string // sketchd binary
	workdir  string // scratch directory inside the checkout
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// The input pool and spans make a heap of tens to hundreds of
	// megabytes; a higher GC target keeps the benchmark's own
	// collections, which compete with sketchd for the two CPUs, rare
	// inside a window, and the limit keeps the heap small on a shared
	// host.
	debug.SetGCPercent(400)
	debug.SetMemoryLimit(768 << 20)
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: skimp-ingest or json-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	fs.StringVar(&cfg.sketchd, "sketchd", "", "path to the sketchd binary")
	fs.StringVar(&cfg.workdir, "workdir", "", "directory for the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	spec, err := findWorkload(cfg.workload)
	if err == nil && (cfg.sketchd == "" || cfg.workdir == "" || cfg.seconds < 1) {
		err = fmt.Errorf("-sketchd, -workdir and a positive -seconds are required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	spec.seconds = time.Duration(cfg.seconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, meta, err := measure(ctx, cfg, spec, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
	res.Correct = err == nil
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	report(stdout, res, meta)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload and returns the result and the run
// metadata. On error the result holds the operation counts so far.
func measure(ctx context.Context, cfg config, spec workloadSpec, log io.Writer) (result, map[string]any, error) {
	meta := runMeta(cfg, spec)
	var res result
	in, err := makeInputs(cfg.seed)
	if err != nil {
		return res, meta, err
	}
	if !cfg.trace {
		live, err := runLive(ctx, cfg, spec, in, nil)
		if live != nil {
			res.Attempted, res.Failed = live.attempted, live.failed
			describeLive(meta, "run", live)
		}
		if err != nil {
			return res, meta, err
		}
		res.Metrics, err = endToEnd(live, meta)
		return res, meta, err
	}

	plain, err := runLive(ctx, cfg, spec, in, nil)
	if plain != nil {
		res.Attempted, res.Failed = plain.attempted, plain.failed
		describeLive(meta, "untraced", plain)
	}
	if err != nil {
		return res, meta, fmt.Errorf("untraced run: %w", err)
	}
	tr := newTracer()
	traced, err := runLive(ctx, cfg, spec, in, tr)
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		describeLive(meta, "traced", traced)
	}
	if err != nil {
		return res, meta, fmt.Errorf("traced run: %w", err)
	}
	lad, err := ladder(tr, in, traced)
	if err != nil {
		return res, meta, err
	}
	spans := tr.snapshot()
	dir := filepath.Join(cfg.workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, meta, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl.gz", spec.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return res, meta, err
	}
	meta["span_file"] = path
	meta["spans"] = len(spans)
	fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(spans), path)
	res.Metrics, err = perLayer(spans, in, plain, traced, lad, meta)
	return res, meta, err
}

// tailMetric reports the p-th percentile of samples, in the samples'
// unit scaled by scale, and records the sample count in meta.
func tailMetric(m map[string]metric, meta map[string]any, name, unit string, samples []float64, p, scale float64) error {
	v, n, err := percentile(samples, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m[name] = metric{v * scale, unit}
	counts, _ := meta["samples"].(map[string]int)
	if counts == nil {
		counts = map[string]int{}
		meta["samples"] = counts
	}
	counts[name] = n
	return nil
}

// endToEnd derives the user-visible metrics of one untraced live run.
func endToEnd(live *liveResult, meta map[string]any) (map[string]metric, error) {
	m := map[string]metric{
		"setup_s":                  {median(live.setupS), "s"},
		"ingest_updates_per_s":     {float64(live.windowAcked) / live.window.Seconds(), "updates/s"},
		"server_cpu_ns_per_update": {live.cpuNsPerUpdate, "ns"},
		"server_peak_rss_mb":       {live.rssMiB, "MiB"},
	}
	for _, t := range []struct {
		name    string
		samples []float64
		p       float64
	}{
		{"ingest_ack_p50_ms", live.ingestMs, 50},
		{"answer_p50_ms", live.answerMs, 50},
		{"answer_p95_ms", live.answerMs, 95},
	} {
		if err := tailMetric(m, meta, t.name, "ms", t.samples, t.p, 1); err != nil {
			return nil, err
		}
	}
	// The ingest tail is reported but not bounded: across runs on a
	// 2-CPU shared host its p95 and p99 spread 25-50%, because during
	// answers the server runs near saturation and a slightly slower host
	// multiplies the tail. No bound a regression check can use holds it.
	if p99, n, err := percentile(live.ingestMs, 99); err == nil {
		meta["ingest_ack_p99_ms"] = p99
		meta["samples"].(map[string]int)["ingest_ack_p99_ms"] = n
	}
	return m, nil
}

// perLayer derives the per-layer metrics from the spans of the traced
// run and the replay, plus the counters both runs collected.
func perLayer(spans []span, in *inputs, plain, traced *liveResult, lad ladderOut, meta map[string]any) (map[string]metric, error) {
	dur := byName(spans, nil)
	self := byName(spans, selfTimes(spans))
	updates := float64(in.updates())
	frames := float64(len(in.frames))
	hitRatio := 0.0
	if c := traced.final.AnswerCache; c.Hits+c.Misses > 0 {
		hitRatio = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	plainRate := float64(plain.windowAcked) / plain.window.Seconds()
	tracedRate := float64(traced.windowAcked) / traced.window.Seconds()

	m := map[string]metric{
		"workload.gen_ns_per_update":          {float64(in.genNs) / updates, "ns"},
		"hashfam.bucket_ns":                   {sum(dur["hashfam.Pairwise.Bucket"]) / (updates * tables), "ns"},
		"hashfam.sign_ns":                     {sum(dur["hashfam.FourWise.Sign"]) / (updates * tables), "ns"},
		"core.update_batch_ns_per_update":     {sum(dur["core.HashSketch.UpdateBatch"]) / updates, "ns"},
		"core.update_batch_allocs_per_update": {lad.allocsPerUpdate, "count"},
		"core.clone_us":                       {median(dur["core.HashSketch.Clone"]) / 1e3, "us"},
		"core.skim_ms":                        {median(dur["core.HashSketch.SkimDense"]) / 1e6, "ms"},
		"core.estimate_ms":                    {median(dur["core.EstimateJoin"]) / 1e6, "ms"},
		"core.dense_values":                   {float64(lad.denseValues), "count"},
		"engine.admit_ns_per_update":          {sum(dur["engine.Tenant.IngestGroups"]) / updates, "ns"},
		"engine.flush_ms":                     {median(dur["engine.Flush"]) / 1e6, "ms"},
		"engine.stats_us":                     {median(dur["engine.Tenant.Stats"]) / 1e3, "us"},
		"engine.answer_miss_ms":               {median(dur["engine.Answer.miss"]) / 1e6, "ms"},
		"engine.answer_hit_us":                {median(dur["engine.Answer.hit"]) / 1e3, "us"},
		"engine.answer_cache_hit_ratio":       {hitRatio, "ratio"},
		"engine.rejected_updates":             {float64(traced.final.Ingest.Rejected), "count"},
		"wire.encode_ns_per_update":           {sum(dur["wire.Writer.WriteData"]) / updates, "ns"},
		"wire.decode_ns_per_update":           {(sum(dur["wire.Reader.Next"]) + sum(dur["wire.DecodeData"])) / updates, "ns"},
		"wire.window_ns_per_frame":            {(sum(dur["wire.Window.Lookup"]) + sum(dur["wire.Window.Record"])) / frames, "ns"},
		"wire.bytes_per_update":               {float64(lad.wireBytes) / updates, "bytes"},
		"client.rejects":                      {float64(traced.frameRejects), "count"},
		"client.retries":                      {float64(traced.retries), "count"},
		"sketchd.rejected_429":                {float64(traced.jsonRejected), "count"},
		"cluster.route_ns_per_update":         {sum(dur["cluster.Config.Route"]) / updates, "ns"},
		"cluster.shard_skew":                  {maxOverMean(lad.routeLoad), "ratio"},
		"cluster.pull_ms":                     {median(dur["cluster.pull"]) / 1e6, "ms"},
		"cluster.payload_bytes":               {float64(len(traced.pull)), "bytes"},
		"cluster.payload_decode_us":           {median(dur["cluster.DecodePayload"]) / 1e3, "us"},
		"distributed.merge_us":                {median(dur["distributed.Merge"]) / 1e3, "us"},
		"trace.overhead_frac":                 {(plainRate - tracedRate) / plainRate, "ratio"},
		"harness.replay_self_ns_per_frame":    {sum(self["sksp.frame"]) / frames, "ns"},
	}
	for _, t := range []struct {
		name, unit string
		samples    []float64
		p, scale   float64
	}{
		{"harness.lateness_p99_ms", "ms", traced.latenessMs, 99, 1},
		{"client.frame_rtt_p50_us", "us", dur["client.attempt"], 50, 1e-3},
		{"client.frame_rtt_p99_us", "us", dur["client.attempt"], 99, 1e-3},
		{"sketchd.update_json_p50_us", "us", dur["sketchd.update_json"], 50, 1e-3},
		{"sketchd.update_json_p99_us", "us", dur["sketchd.update_json"], 99, 1e-3},
		{"sketchd.answer_http_p50_ms", "ms", dur["sketchd.answer_http"], 50, 1e-6},
		{"sketchd.stats_http_p95_ms", "ms", dur["sketchd.stats_http"], 95, 1e-6},
	} {
		if err := tailMetric(m, meta, t.name, t.unit, t.samples, t.p, t.scale); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func maxOverMean(xs []float64) float64 {
	if len(xs) == 0 || sum(xs) == 0 {
		return 0
	}
	hi := xs[0]
	for _, x := range xs {
		hi = max(hi, x)
	}
	return hi / (sum(xs) / float64(len(xs)))
}

// runMeta records what a result depends on besides the code.
func runMeta(cfg config, spec workloadSpec) map[string]any {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	tree, err := treeHash()
	if err != nil {
		tree = "unknown: " + err.Error()
	}
	return map[string]any{
		"tree_sha256": tree,
		"workload":    spec.name,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"git_sha":     sha,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
	}
}

// treeHash identifies the source a run built, also where the checkout
// is not a git repository: SHA-256 over the path and contents of every
// regular file under the working directory, .git and .bench_build left
// out.
func treeHash() (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// describeLive adds one live run's server flags, counts and gate
// figures to the metadata under key.
func describeLive(meta map[string]any, key string, live *liveResult) {
	meta[key] = map[string]any{
		"server_flags":   strings.Join(live.flags, " "),
		"setup_s":        live.setupS,
		"window_s":       live.window.Seconds(),
		"window_acked":   live.windowAcked,
		"window_applied": live.windowApplied,
		"attempted":      live.attempted,
		"failed":         live.failed,
		"failed_frac":    float64(live.failed) / float64(max(live.attempted, 1)),
		"samples": map[string]int{
			"ingest_ack": len(live.ingestMs), "answer": len(live.answerMs),
			"stats": len(live.statsMs), "lateness": len(live.latenessMs),
		},
		"highest_tail_ingest_ack": highestTail(len(live.ingestMs)),
		"highest_tail_answer":     highestTail(len(live.answerMs)),
		"frame_rejects":           live.frameRejects,
		"frame_retries":           live.retries,
		"json_rejected_429":       live.jsonRejected,
		"estimate":                live.estimate,
		"reference":               live.gate.reference,
		"exact_join":              live.gate.exact,
		"error_bound":             live.gate.bound,
		"error_over_bound_shape":  math.Abs(float64(live.estimate-live.gate.exact)) / (live.gate.bound / errorBoundC),
	}
}

// report prints one line per metric, the metadata as one JSON line,
// and the result as the last line.
func report(w io.Writer, res result, meta map[string]any) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if v, ok := meta["ingest_ack_p99_ms"].(float64); ok {
		fmt.Fprintf(w, "%-40s %16.6g %s (reported, not bounded)\n", "ingest_ack_p99_ms", v, "ms")
	}
	if b, err := json.Marshal(map[string]any{"meta": meta}); err == nil {
		fmt.Fprintln(w, string(b))
	}
	b, _ := json.Marshal(res) // plain numbers, strings and bools always marshal
	fmt.Fprintln(w, string(b))
}
