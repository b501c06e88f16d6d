package main

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
	"skimsketch/internal/wire/client"
)

// setupReps is how many times each live run deploys sketchd; the
// first setupReps-1 deployments are stopped again, and setup_s is the
// median over all of them.
const setupReps = 11

// lateLimit is how late past its due time an open-loop operation may
// complete before it counts as failed.
const lateLimit = time.Second

// Surface probes: closed-loop calls a traced run makes after its window
// against surfaces its workload does not exercise, so every per-layer
// metric has a measured value with enough samples for its tail.
const (
	probeJSONBatches = 1100 // p99 needs 1000
	probeFrames      = 1100
	probeStats       = 220 // p95 needs 200
	probePulls       = 10
)

// liveResult is everything one live run measured.
type liveResult struct {
	setupS                []float64
	window                time.Duration // from the window start to the last completion
	windowAcked           int64
	ingestMs, answerMs    []float64
	statsMs               []float64
	latenessMs            []float64
	attempted, failed     int64
	cpuNsPerUpdate        float64
	rssMiB                float64
	gate                  gateResult
	estimate              int64
	final                 nodeStats
	windowApplied         int64
	flags                 []string
	frameRejects, retries int64
	jsonRejected          int64
	pull                  []byte // the last SKSL payload pulled
	freqF, freqG          []int64
}

// runner drives one live run against one deployment.
type runner struct {
	spec workloadSpec
	in   *inputs
	d    *deployment
	tr   *tracer
	conn *client.Conn
	reqs atomic.Int64

	acks       []atomic.Int64 // acks per pool frame
	extra      []stream.Group // single-update frames sent outside the pool, by one goroutine
	ackedTotal atomic.Int64

	mu  sync.Mutex // guards res's sample slices and counters below
	res *liveResult
}

// runLive deploys sketchd, runs the workload's timed window and
// post-window phases, and checks the correctness gate. tr is nil for an
// untraced run.
func runLive(ctx context.Context, cfg config, spec workloadSpec, in *inputs, tr *tracer) (*liveResult, error) {
	res := &liveResult{}
	var d *deployment
	for rep := range setupReps {
		t0 := time.Now()
		var err error
		d, err = deploy(ctx, cfg.sketchd)
		if err != nil {
			if d != nil {
				d.proc.stop()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			if err := d.proc.stop(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
		}
	}
	res.flags = d.proc.args
	r := &runner{spec: spec, in: in, d: d, tr: tr, acks: make([]atomic.Int64, len(in.frames)), res: res}
	r.conn = client.New(d.stream, client.Options{})
	err := r.run(ctx)
	r.conn.Close()
	if serr := d.proc.stop(); err == nil && serr != nil {
		err = fmt.Errorf("teardown: %w", serr)
	}
	return res, err
}

func (r *runner) run(ctx context.Context) error {
	res := r.res
	if err := r.conn.Ping(ctx); err != nil {
		return fmt.Errorf("sksp connect: %w", err)
	}
	pre, err := r.d.flushAndStats(ctx)
	if err != nil {
		return err
	}
	ticks0, err := r.d.proc.cpuTicks()
	if err != nil {
		return err
	}

	// The timed window. A collection first puts the benchmark's own
	// garbage collector in the same phase at the start of every window.
	runtime.GC()
	t0 := time.Now()
	end, err := r.window(ctx, t0)
	if err != nil {
		return fmt.Errorf("window: %w", err)
	}
	res.window = end.Sub(t0)
	res.windowAcked = r.ackedTotal.Load()
	post, err := r.d.flushAndStats(ctx)
	if err != nil {
		return err
	}
	ticks1, err := r.d.proc.cpuTicks()
	if err != nil {
		return err
	}
	res.windowApplied = post.Ingest.UpdatesApplied - pre.Ingest.UpdatesApplied
	if res.windowAcked > 0 {
		res.cpuNsPerUpdate = float64(ticks1-ticks0) * 1e9 / clockTicksPerSec / float64(res.windowAcked)
	}

	if err := r.idleAnswers(ctx); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.probes(ctx); err != nil {
			return err
		}
	}

	final, err := r.d.flushAndStats(ctx)
	if err != nil {
		return err
	}
	res.final = final
	if res.estimate, err = r.d.finalEstimate(ctx); err != nil {
		return err
	}
	rss, err := r.d.proc.peakRSSKiB()
	if err != nil {
		return err
	}
	res.rssMiB = float64(rss) / 1024
	res.freqF, res.freqG = r.multiset()
	res.gate, err = checkGate(gateInput{
		windowAcked: res.windowAcked, windowApplied: res.windowApplied,
		acked: r.ackedTotal.Load(), applied: final.Ingest.UpdatesApplied,
		estimate: res.estimate, freqF: res.freqF, freqG: res.freqG,
	})
	return err
}

// window runs the workload's timed traffic from t0 and returns when the
// last operation completed.
func (r *runner) window(ctx context.Context, t0 time.Time) (time.Time, error) {
	var last atomic.Int64 // UnixNano of the latest completion
	done := func() {
		now := time.Now().UnixNano()
		for {
			cur := last.Load()
			if now <= cur || last.CompareAndSwap(cur, now) {
				return
			}
		}
	}
	var err error
	if r.spec.sksp {
		err = r.skspLoop(ctx, t0.Add(r.spec.seconds), done)
	} else {
		r.openLoop(ctx, t0, schedule(r.spec), done)
	}
	return time.Unix(0, last.Load()), err
}

// skspDepth is how many frames the closed SKSP loop keeps in flight on
// its one connection: the server handles a connection's frames in
// order, so a second frame in flight hides the round trip.
const skspDepth = ingestSenders

// rejectPause is how long the closed SKSP loop waits before resending a
// rejected frame. It replaces the server's one-second Retry-After hint,
// which the wire client honours: a closed loop over the asynchronous
// ingest pipeline fills its queues within milliseconds, so with the hint
// the window measured how many one-second stalls it hit rather than how
// fast the pipeline applies updates.
const rejectPause = time.Millisecond

// skspLoop is the closed SKSP loop: one connection, skspDepth pool
// frames in flight, a new frame sent as soon as one is acked, until the
// deadline. Each frame's ack latency runs from its first send; a
// rejected frame is resent under the same seq, so it is applied once.
func (r *runner) skspLoop(ctx context.Context, deadline time.Time, done func()) error {
	nc, err := net.DialTimeout("tcp", r.d.stream, 5*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()
	w, rd := wire.NewWriter(nc), wire.NewReader(nc)
	if err := w.WriteHeader(); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := rd.ReadHeader(); err != nil {
		return err
	}
	type frame struct {
		i           int
		req         int64
		root        open
		first, sent time.Time
	}
	clientID := fmt.Sprintf("perfbench-%d", time.Now().UnixNano())
	pending := map[uint64]*frame{}
	var seq uint64
	free := time.Now() // when the loop last became ready to send
	send := func(f *frame, s uint64) error {
		f.sent = time.Now()
		d := wire.Data{ClientID: clientID, Seq: s, Groups: r.in.groups[f.i]}
		if err := w.WriteData(&d); err != nil {
			return err
		}
		return w.Flush()
	}
	sendNew := func() error {
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		seq++
		req := r.reqs.Add(1)
		f := &frame{i: int(seq-1) % len(r.in.frames), req: req, first: now,
			root: r.tr.startAt("client.frame", 0, req, now)}
		pending[seq] = f
		r.mu.Lock()
		r.res.attempted++
		r.res.latenessMs = append(r.res.latenessMs, ms(now.Sub(free)))
		r.mu.Unlock()
		return send(f, seq)
	}
	for range skspDepth {
		if err := sendNew(); err != nil {
			return err
		}
	}
	for len(pending) > 0 {
		ft, payload, err := rd.Next()
		if err != nil {
			return err
		}
		now := time.Now()
		free = now
		switch ft {
		case wire.FrameAck:
			a, err := wire.DecodeAck(payload)
			if err != nil {
				return err
			}
			f := pending[a.Seq]
			if f == nil {
				return fmt.Errorf("ack for unknown seq %d", a.Seq)
			}
			delete(pending, a.Seq)
			r.tr.startAt("client.attempt", f.root.id, f.req, f.sent).endAt(now)
			f.root.endAt(now)
			done()
			r.acks[f.i].Add(1)
			r.ackedTotal.Add(a.Applied)
			r.mu.Lock()
			r.res.ingestMs = append(r.res.ingestMs, ms(now.Sub(f.first)))
			r.mu.Unlock()
			if err := sendNew(); err != nil {
				return err
			}
		case wire.FrameReject:
			rj, err := wire.DecodeReject(payload)
			if err != nil {
				return err
			}
			f := pending[rj.Seq]
			if f == nil {
				return fmt.Errorf("reject for unknown seq %d", rj.Seq)
			}
			r.tr.startAt("client.attempt", f.root.id, f.req, f.sent).endAt(now)
			r.mu.Lock()
			r.res.frameRejects++
			r.res.retries++
			r.mu.Unlock()
			time.Sleep(rejectPause)
			if err := send(f, rj.Seq); err != nil {
				return err
			}
		case wire.FrameError:
			e, err := wire.DecodeError(payload)
			if err != nil {
				return err
			}
			return fmt.Errorf("frame %d refused: %s", e.Seq, e.Msg)
		default:
			return fmt.Errorf("unexpected frame type %d", ft)
		}
	}
	return nil
}

type opKind int

const (
	opUpdate opKind = iota
	opAnswer
	opStats
)

var opNames = [...]string{opUpdate: "op.update", opAnswer: "op.answer", opStats: "op.stats"}

// op is one open-loop operation, due at an offset from the window start.
type op struct {
	kind opKind
	due  time.Duration
	idx  int
}

// schedule lays out the workload's open-loop operations over its
// window: JSON batches at the offered rate, answers and stats scrapes
// at theirs, the two query kinds half a period apart.
func schedule(spec workloadSpec) []op {
	var ops []op
	add := func(kind opKind, perSec float64, offset float64) {
		if perSec <= 0 {
			return
		}
		period := time.Duration(float64(time.Second) / perSec)
		first := time.Duration(offset * float64(period))
		for k, due := 0, first; due < spec.seconds; k, due = k+1, due+period {
			ops = append(ops, op{kind: kind, due: due, idx: k})
		}
	}
	add(opUpdate, spec.jsonRate/batchSize, 0)
	add(opAnswer, spec.answerRate, 0.25)
	add(opStats, spec.statsRate, 0.75)
	slices.SortStableFunc(ops, func(a, b op) int { return cmp.Compare(a.due, b.due) })
	return ops
}

// openLoop emits each op at its due time onto a queue that senders
// drain; every op is timed from its due time, so a stall delays and
// charges every op behind it. Nothing is dropped. Updates have
// ingestSenders senders; answers and stats scrapes share one more, so
// an answer that takes tens of milliseconds does not take an update
// sender away.
func (r *runner) openLoop(ctx context.Context, t0 time.Time, ops []op, done func()) {
	type dueOp struct {
		op
		at time.Time
	}
	// Each queue is sized to every op of the window, so the generator
	// never blocks on a slow server and keeps its schedule.
	updates, queries := make(chan dueOp, len(ops)), make(chan dueOp, len(ops))
	var wg sync.WaitGroup
	serve := func(queue <-chan dueOp) {
		defer wg.Done()
		for o := range queue {
			req := r.reqs.Add(1)
			root := r.tr.startAt(opNames[o.kind], 0, req, o.at)
			var err error
			switch o.kind {
			case opUpdate:
				err = r.sendJSON(ctx, o.idx%len(r.in.json), root.id, req)
			case opAnswer:
				err = r.answer(ctx, root.id, req)
			case opStats:
				err = r.stats(ctx, root.id, req)
			}
			end := time.Now()
			root.endAt(end)
			done()
			lat := ms(end.Sub(o.at))
			r.mu.Lock()
			r.res.attempted++
			if err != nil || end.Sub(o.at) > lateLimit {
				r.res.failed++
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", opNames[o.kind], err)
				}
			}
			switch o.kind {
			case opUpdate:
				r.res.ingestMs = append(r.res.ingestMs, lat)
			case opAnswer:
				r.res.answerMs = append(r.res.answerMs, lat)
			case opStats:
				r.res.statsMs = append(r.res.statsMs, lat)
			}
			r.mu.Unlock()
		}
	}
	wg.Add(ingestSenders + 1)
	for range ingestSenders {
		go serve(updates)
	}
	go serve(queries)
	for _, o := range ops {
		at := t0.Add(o.due)
		sleepUntil(at)
		late := ms(time.Since(at))
		r.mu.Lock()
		r.res.latenessMs = append(r.res.latenessMs, late)
		r.mu.Unlock()
		if o.kind == opUpdate {
			updates <- dueOp{o, at}
		} else {
			queries <- dueOp{o, at}
		}
	}
	close(updates)
	close(queries)
	wg.Wait()
}

// sleepUntil blocks the calling thread in nanosleep until at. Go's
// time.Sleep wakes up to a millisecond late when the process is
// otherwise idle, which is most of a JSON batch period; nanosleep is
// accurate to tens of microseconds.
func sleepUntil(at time.Time) {
	for d := time.Until(at); d > 0; d = time.Until(at) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// sendFrame sends pool frame i over SKSP and counts its ack.
func (r *runner) sendFrame(ctx context.Context, i int, parent int64) error {
	req := r.reqs.Add(1)
	sp := r.tr.start("client.Conn.Send", parent, req)
	var onAttempt func(time.Duration)
	if r.tr != nil {
		onAttempt = func(d time.Duration) {
			now := time.Now()
			r.tr.startAt("client.attempt", sp.id, req, now.Add(-d)).endAt(now)
		}
	}
	out, err := r.conn.SendTimed(ctx, "", r.in.groups[i], onAttempt)
	sp.end()
	r.mu.Lock()
	r.res.frameRejects += int64(out.Rejected429)
	r.res.retries += int64(max(out.Attempts-1, 0))
	r.mu.Unlock()
	if err != nil {
		return err
	}
	r.acks[i].Add(1)
	r.ackedTotal.Add(out.Applied)
	return nil
}

// sendJSON posts pool batch i to /update and counts its ack.
func (r *runner) sendJSON(ctx context.Context, i int, parent, req int64) error {
	sp := r.tr.start("sketchd.update_json", parent, req)
	out, err := r.d.front.SendUpdates(ctx, r.in.json[i], nil)
	sp.end()
	r.mu.Lock()
	r.res.jsonRejected += out.Rejected429
	r.mu.Unlock()
	if err != nil {
		return err
	}
	r.acks[i].Add(1)
	r.ackedTotal.Add(out.Applied)
	return nil
}

func (r *runner) answer(ctx context.Context, parent, req int64) error {
	sp := r.tr.start("sketchd.answer_http", parent, req)
	err := r.d.front.Answer(ctx, "q", nil)
	sp.end()
	return err
}

func (r *runner) stats(ctx context.Context, parent, req int64) error {
	sp := r.tr.start("sketchd.stats_http", parent, req)
	_, err := r.d.front.Stats(ctx)
	sp.end()
	return err
}

// idleAnswers runs the workload's post-window answers: each follows a
// one-update SKSP frame, so it misses the answer cache and skims, on a
// server with no other traffic.
func (r *runner) idleAnswers(ctx context.Context) error {
	for k := range r.spec.idleAnswers {
		name := streamOf(k)
		g := []stream.Group{{Name: name, Updates: []stream.Update{{Value: r.in.frames[k][0].Value, Weight: 1}}}}
		out, err := r.conn.Send(ctx, "", g)
		if err != nil {
			return fmt.Errorf("idle-answer update: %w", err)
		}
		r.extra = append(r.extra, g[0])
		r.ackedTotal.Add(out.Applied)
		t0 := time.Now()
		err = r.answer(ctx, 0, r.reqs.Add(1))
		lat := ms(time.Since(t0))
		r.mu.Lock()
		r.res.attempted += 2
		r.res.answerMs = append(r.res.answerMs, lat)
		r.mu.Unlock()
		if err != nil {
			return fmt.Errorf("idle answer: %w", err)
		}
	}
	return nil
}

// probes exercises, closed loop, each surface the workload's window did
// not, then pulls the SKSL payload a cluster merger would.
func (r *runner) probes(ctx context.Context) error {
	count := func(err error) error {
		r.mu.Lock()
		r.res.attempted++
		if err != nil {
			r.res.failed++
		}
		r.mu.Unlock()
		return err
	}
	if r.spec.jsonRate == 0 {
		for k := range probeJSONBatches {
			if err := count(r.sendJSON(ctx, k%len(r.in.json), 0, r.reqs.Add(1))); err != nil {
				return fmt.Errorf("json probe: %w", err)
			}
		}
	}
	if r.spec.statsRate == 0 {
		for range probeStats {
			if err := count(r.stats(ctx, 0, r.reqs.Add(1))); err != nil {
				return fmt.Errorf("stats probe: %w", err)
			}
		}
	}
	if !r.spec.sksp {
		for k := range probeFrames {
			if err := count(r.sendFrame(ctx, k%len(r.in.frames), 0)); err != nil {
				return fmt.Errorf("frame probe: %w", err)
			}
		}
	}
	for range probePulls {
		sp := r.tr.start("cluster.pull", 0, r.reqs.Add(1))
		body, err := getBytes(ctx, r.d.front.BaseURL+"/sketch?query=q")
		sp.end()
		if err := count(err); err != nil {
			return fmt.Errorf("pull: %w", err)
		}
		r.res.pull = body
	}
	return nil
}

// multiset folds the acked frames into per-stream frequency vectors.
func (r *runner) multiset() (f, g []int64) {
	f, g = make([]int64, domain), make([]int64, domain)
	add := func(name string, ups []stream.Update, times int64) {
		dst := f
		if name == "G" {
			dst = g
		}
		for _, u := range ups {
			dst[u.Value] += u.Weight * times
		}
	}
	for i := range r.acks {
		if n := r.acks[i].Load(); n > 0 {
			add(streamOf(i), r.in.frames[i], n)
		}
	}
	for _, e := range r.extra {
		add(e.Name, e.Updates, 1)
	}
	return f, g
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
