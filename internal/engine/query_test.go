package engine

import (
	"errors"
	"strings"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// Tests for the snapshot-then-estimate query path: the epoch-keyed
// answer cache, its invalidation rules, parallel-estimation equivalence,
// and the no-stall guarantee (ingestion proceeds while an Answer is
// estimating outside the locks).

func declareFG(t *testing.T, e *Engine, domain uint64) {
	t.Helper()
	if err := e.DeclareStream("F", domain); err != nil {
		t.Fatal(err)
	}
	if err := e.DeclareStream("G", domain); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}
	if err := e.RegisterQuery(spec); err != nil {
		t.Fatal(err)
	}
}

func zipfBatch(t *testing.T, domain uint64, n int, seed int64) []stream.Update {
	t.Helper()
	z, err := workload.NewZipf(domain, 1.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MakeStream(z, n)
}

// A repeated Answer with no intervening updates must be served from the
// cache (identical answer, hit counted); an update to either side must
// invalidate the entry and force a fresh estimate.
func TestAnswerCacheHitAndInvalidation(t *testing.T) {
	e := mustEngine(t)
	declareFG(t, e, 1<<12)
	if err := e.IngestBatch("F", zipfBatch(t, 1<<12, 4000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch("G", zipfBatch(t, 1<<12, 4000, 2)); err != nil {
		t.Fatal(err)
	}

	a1, err := e.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("cached answer differs: %+v vs %+v", a1, a2)
	}
	st := e.Stats()
	if st.AnswerCacheMisses != 1 || st.AnswerCacheHits != 1 {
		t.Fatalf("after two answers: hits=%d misses=%d, want 1/1", st.AnswerCacheHits, st.AnswerCacheMisses)
	}

	// An update to the LEFT side invalidates.
	if err := e.Update("F", 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Answer("q"); err != nil {
		t.Fatal(err)
	}
	// An update to the RIGHT side invalidates too.
	if err := e.Update("G", 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Answer("q"); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.AnswerCacheMisses != 3 || st.AnswerCacheHits != 1 {
		t.Fatalf("after invalidations: hits=%d misses=%d, want 1/3", st.AnswerCacheHits, st.AnswerCacheMisses)
	}
}

// Removing a query and re-registering the same name over fresh synopses
// must not serve the old query's cached answer, even when the fresh
// synopses reach exactly the epochs the cache entry was keyed on.
func TestAnswerCacheClearedOnReregister(t *testing.T) {
	e := mustEngine(t)
	declareFG(t, e, 1<<10)
	fOld := zipfBatch(t, 1<<10, 3000, 1)
	gOld := zipfBatch(t, 1<<10, 3000, 2)
	if err := e.IngestBatch("F", fOld); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch("G", gOld); err != nil {
		t.Fatal(err)
	}
	old, err := e.Answer("q")
	if err != nil {
		t.Fatal(err)
	}

	if err := e.RemoveQuery("q"); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}
	if err := e.RegisterQuery(spec); err != nil {
		t.Fatal(err)
	}
	// Feed the SAME number of updates of different content, driving the
	// fresh synopses to the same epochs the stale entry is keyed on.
	for i := range fOld {
		fOld[i].Value = (fOld[i].Value + 17) % (1 << 10)
		gOld[i].Value = (gOld[i].Value + 29) % (1 << 10)
	}
	if err := e.IngestBatch("F", fOld); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch("G", gOld); err != nil {
		t.Fatal(err)
	}
	fresh, err := e.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Detail == old.Detail {
		t.Fatal("re-registered query served the stale cached answer")
	}
}

// QueryWorkers must not change any answer: an engine estimating with 4
// workers returns bit-identical answers to a sequential engine fed the
// same stream (core's parallel-skim exactness, end to end).
func TestAnswerParallelMatchesSequential(t *testing.T) {
	build := func(workers int) Answer {
		opts := defaultOpts()
		opts.QueryWorkers = workers
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		declareFG(t, e, 1<<14)
		if err := e.IngestBatch("F", zipfBatch(t, 1<<14, 20000, 5)); err != nil {
			t.Fatal(err)
		}
		if err := e.IngestBatch("G", zipfBatch(t, 1<<14, 20000, 6)); err != nil {
			t.Fatal(err)
		}
		a, err := e.Answer("q")
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	seq := build(0)
	for _, w := range []int{2, 4, -1} {
		if par := build(w); par != seq {
			t.Fatalf("workers=%d: answer differs: %+v vs %+v", w, par, seq)
		}
	}
}

// Stats must report the configured estimation parallelism.
func TestStatsReportsQueryWorkers(t *testing.T) {
	opts := defaultOpts()
	opts.QueryWorkers = 4
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.QueryWorkers != 4 {
		t.Fatalf("QueryWorkers = %d, want 4", st.QueryWorkers)
	}
}

// A validation refusal is a *StreamError naming the failing group, with
// the engine's message text, and applies nothing.
func TestIngestGroupsStreamError(t *testing.T) {
	e := mustEngine(t)
	declareFG(t, e, 16)
	for _, tc := range []struct {
		groups       []stream.Group
		stream, text string
	}{
		{[]stream.Group{{Name: "F", Updates: []stream.Update{{Value: 3, Weight: 1}}}, {Name: "nope", Updates: []stream.Update{{Value: 1, Weight: 1}}}},
			"nope", `engine: unknown stream "nope"`},
		{[]stream.Group{{Name: "F", Updates: []stream.Update{{Value: 99, Weight: 1}}}},
			"F", `engine: stream "F": `},
	} {
		err := e.IngestGroups(tc.groups, nil)
		var se *StreamError
		if !errors.As(err, &se) || se.Stream != tc.stream || !strings.HasPrefix(err.Error(), tc.text) {
			t.Fatalf("IngestGroups error %v, want a StreamError for %q starting %q", err, tc.stream, tc.text)
		}
	}
	if st := e.Stats(); st.UpdateCounts["F"] != 0 {
		t.Fatalf("refused requests applied updates: count = %d", st.UpdateCounts["F"])
	}
}

// The no-stall regression: with the pipeline running, a long Answer over
// a large domain must not block ingestion for its whole duration. The
// old implementation held the quiesce locks across the estimate, so the
// concurrent IngestBatch+Flush loop below could not complete a single
// iteration until the answer returned; the snapshot-then-estimate path
// releases the locks after cloning, so iterations proceed. Run with
// -race to also certify the clone hand-off.
func TestIngestProceedsDuringAnswer(t *testing.T) {
	const domain = 1 << 20
	opts := Options{SketchConfig: core.Config{Tables: 5, Buckets: 1024, Seed: 7}}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	declareFG(t, e, domain)
	if err := e.StartIngest(IngestConfig{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer e.StopIngest()
	if err := e.IngestBatch("F", zipfBatch(t, domain, 50000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch("G", zipfBatch(t, domain, 50000, 2)); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	done := make(chan error, 1)
	go func() {
		_, err := e.Answer("q")
		done <- err
	}()

	small := zipfBatch(t, domain, 64, 3)
	iters := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if iters == 0 {
				t.Fatal("no ingest iteration completed while Answer was estimating: query path stalls the pipeline")
			}
			return
		default:
		}
		if err := e.IngestBatch("F", small); err != nil {
			t.Fatal(err)
		}
		e.Flush()
		iters++
	}
}
