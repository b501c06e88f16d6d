package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/engine"
	"skimsketch/internal/hashfam"
	"skimsketch/internal/wire"
)

// ladderRounds splits the in-process replay into rounds; each ends with
// the reads a server makes between ingest bursts (Flush, a cache-missing
// Answer, a cache-hitting Answer, Stats), so those get one sample each.
const ladderRounds = 16

// coreReps is how many times the query-side core calls are repeated.
const coreReps = 5

// hashSink keeps the hash loops from being optimised away.
var hashSink uint64

// ladderOut is what the replay measures besides its spans.
type ladderOut struct {
	wireBytes       int       // encoded size of every replayed frame
	allocsPerUpdate float64   // core.UpdateBatch allocations per update
	denseValues     int       // dense values the final estimate extracted
	routeLoad       []float64 // pool updates routed to each shard
}

// ladder replays a workload's pre-built inputs in process through the
// same public calls sketchd and a cluster merger make, in the order they
// make them, with a span around each.
func ladder(tr *tracer, in *inputs, live *liveResult) (ladderOut, error) {
	var out ladderOut
	var err error
	if out.wireBytes, err = ladderWireEngine(tr, in); err != nil {
		return out, err
	}
	if out.allocsPerUpdate, out.denseValues, err = ladderCore(tr, in, live); err != nil {
		return out, err
	}
	ladderHash(tr, in)
	out.routeLoad = ladderRoute(tr, in)
	return out, ladderPayloads(tr, live)
}

// ladderWireEngine encodes every pool frame with wire.Writer, then has
// two callers (the two SKSP connections a server would see) each read,
// decode, dedupe and admit their frames into an engine running the
// sketchd pipeline.
func ladderWireEngine(tr *tracer, in *inputs) (int, error) {
	eng, err := engine.New(engine.Options{SketchConfig: sketchConfig})
	if err != nil {
		return 0, err
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: ingestWorkers}); err != nil {
		return 0, err
	}
	defer eng.StopIngest()
	t := eng.Tenant(engine.DefaultTenant)
	for _, s := range []string{"F", "G"} {
		if err := t.DeclareStream(s, domain); err != nil {
			return 0, err
		}
	}
	if err := t.RegisterQuery(engine.QuerySpec{Name: "q", Agg: engine.Count,
		Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}); err != nil {
		return 0, err
	}

	// Frames alternate F and G, so frames are dealt to callers in pairs
	// to give each caller both streams.
	const callers = ingestSenders
	perRound := len(in.frames) / ladderRounds
	streams := make([][]*bytes.Buffer, ladderRounds)
	enc := tr.start("ladder.encode", 0, 0)
	for round := range ladderRounds {
		streams[round] = make([]*bytes.Buffer, callers)
		ws := make([]*wire.Writer, callers)
		for c := range callers {
			streams[round][c] = new(bytes.Buffer)
			ws[c] = wire.NewWriter(streams[round][c])
			if err := ws[c].WriteHeader(); err != nil {
				return 0, err
			}
		}
		for k := range perRound {
			i := round*perRound + k
			c := (i / 2) % callers
			d := wire.Data{ClientID: fmt.Sprintf("ladder-%d", c), Seq: uint64(i + 1), Groups: in.groups[i]}
			sp := tr.start("wire.Writer.WriteData", enc.id, int64(i+1))
			err := ws[c].WriteData(&d)
			sp.end()
			if err != nil {
				return 0, err
			}
		}
		for _, w := range ws {
			if err := w.Flush(); err != nil {
				return 0, err
			}
		}
	}
	enc.end()

	window := wire.NewWindow(0, 0)
	pool := sync.Pool{New: func() any { return new(wire.Data) }}
	var bytesTotal int
	for round := range ladderRounds {
		for _, b := range streams[round] {
			bytesTotal += b.Len()
		}
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = replayConn(tr, t, window, &pool, streams[round][c])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		sp := tr.start("engine.Flush", 0, 0)
		eng.Flush()
		sp.end()
		sp = tr.start("engine.Answer.miss", 0, 0)
		miss, err := t.Answer("q")
		sp.end()
		if err != nil {
			return 0, err
		}
		sp = tr.start("engine.Answer.hit", 0, 0)
		hit, err := t.Answer("q")
		sp.end()
		if err != nil {
			return 0, err
		}
		if hit.Estimate != miss.Estimate {
			return 0, fmt.Errorf("ladder: cached answer %d != computed %d", hit.Estimate, miss.Estimate)
		}
		sp = tr.start("engine.Tenant.Stats", 0, 0)
		_ = t.Stats() // timed for its cost; the counters are not needed
		sp.end()
	}
	return bytesTotal, nil
}

// replayConn is one SKSP session's server side: Reader.Next, DecodeData,
// a dedupe Lookup, IngestGroups and the dedupe Record, per frame.
func replayConn(tr *tracer, t *engine.Tenant, window *wire.Window, pool *sync.Pool, buf *bytes.Buffer) error {
	rd := wire.NewReader(bytes.NewReader(buf.Bytes()))
	if err := rd.ReadHeader(); err != nil {
		return err
	}
	for {
		root := tr.start("sksp.frame", 0, 0)
		sp := tr.start("wire.Reader.Next", root.id, 0)
		_, payload, err := rd.Next()
		sp.end()
		if err != nil {
			return nil // end of this caller's stream
		}
		d := pool.Get().(*wire.Data)
		sp = tr.start("wire.DecodeData", root.id, 0)
		err = wire.DecodeData(payload, d)
		sp.end()
		if err != nil {
			return err
		}
		root.req = int64(d.Seq)
		client, seq := d.ClientID, d.Seq
		var n int64
		for i := range d.Groups {
			n += int64(len(d.Groups[i].Updates))
		}
		sp = tr.start("wire.Window.Lookup", root.id, root.req)
		_, dup := window.Lookup(client, seq)
		sp.end()
		if dup {
			return fmt.Errorf("ladder: frame %s/%d reported as a replay", client, seq)
		}
		sp = tr.start("engine.Tenant.IngestGroups", root.id, root.req)
		err = t.IngestGroups(d.Groups, func() { pool.Put(d) })
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.start("wire.Window.Record", root.id, root.req)
		window.Record(client, seq, wire.Outcome{Applied: n})
		sp.end()
		root.end()
	}
}

// ladderCore times core.HashSketch.UpdateBatch on the pool's batches,
// then the query-side calls on the live run's final sketches.
func ladderCore(tr *tracer, in *inputs, live *liveResult) (allocs float64, dense int, err error) {
	sk := map[string]*core.HashSketch{}
	for _, s := range []string{"F", "G"} {
		sk[s] = core.MustNewHashSketch(sketchConfig)
	}
	for i, b := range in.frames {
		sp := tr.start("core.HashSketch.UpdateBatch", 0, int64(i+1))
		sk[streamOf(i)].UpdateBatch(b)
		sp.end()
	}
	// Allocations are counted in a separate untraced pass: span
	// recording allocates.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, b := range in.frames {
		sk[streamOf(i)].UpdateBatch(b)
	}
	runtime.ReadMemStats(&m1)
	allocs = float64(m1.Mallocs-m0.Mallocs) / float64(in.updates())

	f, err := sketchOf(live.freqF)
	if err != nil {
		return 0, 0, err
	}
	g, err := sketchOf(live.freqG)
	if err != nil {
		return 0, 0, err
	}
	for range coreReps {
		sp := tr.start("core.HashSketch.Clone", 0, 0)
		c := f.Clone()
		sp.end()
		sp = tr.start("core.HashSketch.SkimDense", 0, 0)
		_, err := c.SkimDense(domain, f.DefaultSkimThreshold())
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = tr.start("core.EstimateJoin", 0, 0)
		est, err := core.EstimateJoin(f, g, domain, nil)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		dense = est.DenseCountF + est.DenseCountG
	}
	return allocs, dense, nil
}

// ladderHash evaluates, per table, the bucket and sign hashes the
// sketch derives from its seed over every pool value.
func ladderHash(tr *tracer, in *inputs) {
	ss := hashfam.NewSeedStream(sketchSeed)
	for j := range tables {
		h, x := hashfam.NewPairwise(ss), hashfam.NewFourWise(ss)
		sp := tr.start("hashfam.Pairwise.Bucket", 0, int64(j+1))
		var acc uint64
		for _, b := range in.frames {
			for _, u := range b {
				acc += uint64(h.Bucket(u.Value, buckets))
			}
		}
		sp.end()
		sp = tr.start("hashfam.FourWise.Sign", 0, int64(j+1))
		for _, b := range in.frames {
			for _, u := range b {
				acc += uint64(x.Sign(u.Value))
			}
		}
		sp.end()
		hashSink += acc
	}
}

// ladderRoute places every pool update on a two-shard ring, as the
// merger's SKSP forwarder does, and records the per-shard load.
func ladderRoute(tr *tracer, in *inputs) []float64 {
	ring := cluster.Config{Shards: []cluster.Shard{{Name: "s0", Addr: "http://s0"}, {Name: "s1", Addr: "http://s1"}}}
	load := make([]float64, len(ring.Shards))
	for i, b := range in.frames {
		name := streamOf(i)
		sp := tr.start("cluster.Config.Route", 0, int64(i+1))
		for _, u := range b {
			load[ring.Route("", name, u.Value)]++
		}
		sp.end()
	}
	return load
}

// ladderPayloads decodes the SKSL payload pulled from the live server
// and merges its left synopsis with itself: the calls the merger makes
// for a global answer over two shards.
func ladderPayloads(tr *tracer, live *liveResult) error {
	for range coreReps {
		sp := tr.start("cluster.DecodePayload", 0, 0)
		p, err := cluster.DecodePayload(live.pull)
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.start("distributed.Merge", 0, 0)
		_, err = distributed.Merge(p.Left, p.Left)
		sp.end()
		if err != nil {
			return err
		}
	}
	return nil
}
