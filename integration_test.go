package skimsketch_test

import (
	"path/filepath"
	"testing"

	"skimsketch"
	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/dyadic"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/window"
	"skimsketch/internal/workload"
)

// Integration tests exercising multi-module flows end to end: file I/O →
// one-pass ingestion → estimation; checkpoint/restore mid-stream;
// parallel shards vs dyadic hierarchies vs plain sketches answering the
// same query.

// TestFilePipelineEndToEnd: generate streams, persist them, re-ingest in
// one pass, estimate, and grade against the exact answer computed from
// the same files.
func TestFilePipelineEndToEnd(t *testing.T) {
	const domain = 1 << 12
	dir := t.TempDir()
	fPath := filepath.Join(dir, "f.sks")
	gPath := filepath.Join(dir, "g.sks")

	zf, _ := workload.NewZipf(domain, 1.2, 1)
	zg, _ := workload.NewZipf(domain, 1.2, 2)
	fUpdates := workload.WithDeletes(workload.MakeStream(zf, 30000), 0.2, 3)
	gUpdates := workload.MakeStream(workload.NewShifted(zg, 25), 30000)
	if err := stream.WriteFile(fPath, domain, fUpdates); err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteFile(gPath, domain, gUpdates); err != nil {
		t.Fatal(err)
	}

	cfg := skimsketch.Config{Tables: 7, Buckets: 512, Seed: 99}
	f, _ := skimsketch.New(cfg)
	g, _ := skimsketch.New(cfg)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	if _, err := stream.Pipe(fPath, f, fv); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Pipe(gPath, g, gv); err != nil {
		t.Fatal(err)
	}

	est, err := skimsketch.EstimateJoin(f, g, domain)
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(fv.InnerProduct(gv))
	if e := stats.SymmetricError(float64(est.Total), exact); e > 0.25 {
		t.Fatalf("pipeline error %.4f (est %d vs exact %.0f)", e, est.Total, exact)
	}
}

// TestCheckpointRestoreMidStream: serialize a sketch halfway through a
// stream, restore it into a fresh process-like state, finish the stream,
// and confirm the estimate is identical to an uninterrupted run.
func TestCheckpointRestoreMidStream(t *testing.T) {
	const domain = 1 << 10
	cfg := core.Config{Tables: 5, Buckets: 256, Seed: 5}
	z, _ := workload.NewZipf(domain, 1.3, 7)
	updates := workload.MakeStream(z, 20000)

	uninterrupted := core.MustNewHashSketch(cfg)
	stream.Apply(updates, uninterrupted)

	first := core.MustNewHashSketch(cfg)
	stream.Apply(updates[:10000], first)
	blob, err := first.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored core.HashSketch
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	stream.Apply(updates[10000:], &restored)

	for j := 0; j < 5; j++ {
		for k := 0; k < 256; k++ {
			if restored.Counter(j, k) != uninterrupted.Counter(j, k) {
				t.Fatal("checkpoint/restore diverged from uninterrupted run")
			}
		}
	}
}

// TestAllPathsAgreeOnTheSameQuery: the plain sketch, the parallel-shard
// merge, and the dyadic hierarchy's base sketch must produce identical
// synopses for the same stream, and hence identical join estimates.
func TestAllPathsAgreeOnTheSameQuery(t *testing.T) {
	const bits = 10
	const domain = 1 << bits
	cfg := core.Config{Tables: 5, Buckets: 128, Seed: 11}
	z, _ := workload.NewZipf(domain, 1.4, 9)
	updates := workload.MakeStream(z, 20000)

	plain := core.MustNewHashSketch(cfg)
	stream.Apply(updates, plain)

	// Shard round-robin into three sketches and merge them back.
	shards := []*core.HashSketch{core.MustNewHashSketch(cfg), core.MustNewHashSketch(cfg), core.MustNewHashSketch(cfg)}
	for i, u := range updates {
		shards[i%len(shards)].Update(u.Value, u.Weight)
	}
	merged, err := distributed.Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}

	// The dyadic hierarchy's level-0 sketch uses a derived seed, so
	// compare behaviour (point estimates across the domain) rather than
	// raw counters for it.
	hier := dyadic.MustNew(bits, cfg)
	stream.Apply(updates, hier)

	exact := stream.NewFreqVector()
	stream.Apply(updates, exact)

	for j := 0; j < 5; j++ {
		for k := 0; k < 128; k++ {
			if plain.Counter(j, k) != merged.Counter(j, k) {
				t.Fatal("sharded and plain sketches differ")
			}
		}
	}
	// Dense sets extracted by every path agree with the ground truth's
	// heavy values.
	thr := plain.DefaultSkimThreshold()
	densePlain := plain.DenseValues(domain, thr)
	denseHier, err := hier.Skim(thr)
	if err != nil {
		t.Fatal(err)
	}
	trueDense := exact.Dense(thr + thr/2) // comfortably above threshold
	for v := range trueDense {
		if _, ok := densePlain[v]; !ok {
			t.Fatalf("plain sketch missed clearly-dense value %d", v)
		}
		if _, ok := denseHier[v]; !ok {
			t.Fatalf("dyadic hierarchy missed clearly-dense value %d", v)
		}
	}
}

// TestWindowedVersusLandmark: on a stream whose join partner changes
// character over time, the windowed estimator tracks the recent join
// while the landmark estimator reports the whole history.
func TestWindowedVersusLandmark(t *testing.T) {
	const domain = 1 << 10
	cfg := core.Config{Tables: 7, Buckets: 256, Seed: 13}
	landF := core.MustNewHashSketch(cfg)
	landG := core.MustNewHashSketch(cfg)
	winF := window.MustNew(20000, 4, cfg)
	winG := window.MustNew(20000, 4, cfg)

	feed := func(fVal, gVal func(i int) uint64, n int) {
		for i := 0; i < n; i++ {
			fv, gv := fVal(i), gVal(i)
			landF.Update(fv, 1)
			landG.Update(gv, 1)
			winF.Update(fv, 1)
			winG.Update(gv, 1)
		}
	}
	// Phase 1: streams overlap heavily (same values).
	zf1, _ := workload.NewZipf(domain, 1.2, 1)
	zg1, _ := workload.NewZipf(domain, 1.2, 2)
	feed(func(int) uint64 { return zf1.Next() }, func(int) uint64 { return zg1.Next() }, 40000)
	// Phase 2: G moves to a disjoint half of the domain.
	zf2, _ := workload.NewZipf(domain/2, 1.2, 3)
	zg2, _ := workload.NewZipf(domain/2, 1.2, 4)
	feed(func(int) uint64 { return zf2.Next() },
		func(int) uint64 { return zg2.Next() + domain/2 }, 40000)

	land, err := core.EstimateJoin(landF, landG, domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	win, err := window.EstimateJoin(winF, winG, domain)
	if err != nil {
		t.Fatal(err)
	}
	// The window covers only phase 2, which is disjoint: its estimate
	// must be far below the landmark estimate.
	if win.Total*10 > land.Total {
		t.Fatalf("windowed estimate %d should be tiny next to landmark %d", win.Total, land.Total)
	}
}
