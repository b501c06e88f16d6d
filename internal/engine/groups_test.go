package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/stream"
)

func sameValueBatch(n int, value uint64) []stream.Update {
	b := make([]stream.Update, n)
	for i := range b {
		b[i] = stream.Update{Value: value, Weight: 1}
	}
	return b
}

// TestIngestGroupsQuotaAtomic is the engine-layer regression test for
// the partial-batch 429 bug: a two-group request whose SUM exceeds the
// queue-share quota — while each group alone fits — must admit NOTHING.
// The pre-fix per-group admission applied the first group and rejected
// the second, so a client retry double-counted the first group.
func TestIngestGroupsQuotaAtomic(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant("capped")
	setupTenant(t, tn)
	if err := e.SetQuota("capped", Quota{MaxPendingUpdates: 150}); err != nil {
		t.Fatal(err)
	}
	if err := e.StartIngest(IngestConfig{Workers: 2, BatchSize: 16, QueueDepth: 64}); err != nil {
		t.Fatal(err)
	}
	defer e.StopIngest()

	groups := []stream.Group{
		{Name: "F", Updates: sameValueBatch(100, 7)},
		{Name: "G", Updates: sameValueBatch(100, 7)},
	}
	err := tn.IngestGroups(groups, nil)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("200-update request against quota 150: want ErrQuotaExceeded, got %v", err)
	}
	e.Flush()
	st := tn.Stats()
	if st.UpdateCounts["F"] != 0 || st.UpdateCounts["G"] != 0 {
		t.Fatalf("rejected request partially applied: F=%d G=%d, want 0/0",
			st.UpdateCounts["F"], st.UpdateCounts["G"])
	}
	if st.Rejected != 200 {
		t.Fatalf("rejected counter %d, want 200 (the whole request)", st.Rejected)
	}
	if st.PendingUpdates != 0 {
		t.Fatalf("pending gauge %d after rejection, want 0", st.PendingUpdates)
	}

	// The retry contract: after the rejection the client resends the WHOLE
	// request; with room it lands exactly once.
	if err := e.SetQuota("capped", Quota{MaxPendingUpdates: 500}); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestGroups(groups, nil); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	st = tn.Stats()
	if st.UpdateCounts["F"] != 100 || st.UpdateCounts["G"] != 100 {
		t.Fatalf("retried request counts F=%d G=%d, want 100/100",
			st.UpdateCounts["F"], st.UpdateCounts["G"])
	}
	// COUNT(F ⋈ G) with all mass on one value is exactly 100·100.
	ans, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 100*100 {
		t.Fatalf("estimate %d, want exactly %d", ans.Estimate, 100*100)
	}
}

// TestQuotaRejectCountsOneRequest: the engine-wide rejected counter
// counts refused requests, like a saturation refusal, while the
// tenant's counter keeps counting refused updates.
func TestQuotaRejectCountsOneRequest(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant("capped")
	setupTenant(t, tn)
	if err := e.SetQuota("capped", Quota{MaxPendingUpdates: 150}); err != nil {
		t.Fatal(err)
	}
	if err := e.StartIngest(IngestConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer e.StopIngest()
	err := tn.IngestGroups([]stream.Group{{Name: "F", Updates: sameValueBatch(200, 7)}}, nil)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("200-update request against quota 150: want ErrQuotaExceeded, got %v", err)
	}
	if got := e.IngestStats().Rejected; got != 1 {
		t.Fatalf("engine rejected = %d, want 1 (one refused request)", got)
	}
	if got := tn.Stats().Rejected; got != 200 {
		t.Fatalf("tenant rejected = %d, want 200 (refused updates)", got)
	}
}

// TestIngestGroupsValidationAtomic: a request whose LATER group fails
// validation (unknown stream, out-of-domain value) applies nothing,
// in both the synchronous and the pipelined mode.
func TestIngestGroupsValidationAtomic(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		e := mustEngine(t)
		tn := e.Tenant("v")
		setupTenant(t, tn)
		if pipelined {
			if err := e.StartIngest(IngestConfig{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		err := tn.IngestGroups([]stream.Group{
			{Name: "F", Updates: sameValueBatch(10, 1)},
			{Name: "missing", Updates: sameValueBatch(1, 1)},
		}, nil)
		if err == nil {
			t.Fatalf("pipelined=%v: unknown stream in second group not rejected", pipelined)
		}
		err = tn.IngestGroups([]stream.Group{
			{Name: "F", Updates: sameValueBatch(10, 1)},
			{Name: "G", Updates: []stream.Update{{Value: 99999, Weight: 1}}},
		}, nil)
		if err == nil {
			t.Fatalf("pipelined=%v: out-of-domain value in second group not rejected", pipelined)
		}
		if pipelined {
			e.Flush()
		}
		st := tn.Stats()
		if st.UpdateCounts["F"] != 0 || st.UpdateCounts["G"] != 0 {
			t.Fatalf("pipelined=%v: invalid request partially applied: %+v", pipelined, st.UpdateCounts)
		}
		if pipelined {
			e.StopIngest()
		}
	}
}

// TestIngestGroupsRelease pins the buffer-ownership contract: release
// fires exactly once, only after every update is folded into every
// synopsis — at which point the caller may overwrite the buffers
// without corrupting what was ingested.
func TestIngestGroupsRelease(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant("r")
	setupTenant(t, tn)
	if err := e.StartIngest(IngestConfig{Workers: 2, BatchSize: 8, QueueDepth: 16}); err != nil {
		t.Fatal(err)
	}
	defer e.StopIngest()

	buf := sameValueBatch(64, 7)
	groups := []stream.Group{
		{Name: "F", Updates: buf[:32]},
		{Name: "G", Updates: buf[32:]},
	}
	var calls atomic.Int32
	released := make(chan struct{})
	if err := tn.IngestGroups(groups, func() {
		if calls.Add(1) == 1 {
			close(released)
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("release callback never fired")
	}
	// The engine promised it holds no reference: trashing the buffer must
	// not affect what was ingested.
	for i := range buf {
		buf[i] = stream.Update{Value: 999, Weight: -5}
	}
	e.Flush()
	if got := calls.Load(); got != 1 {
		t.Fatalf("release called %d times, want exactly 1", got)
	}
	ans, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 32*32 {
		t.Fatalf("estimate %d, want exactly %d (buffer reuse corrupted ingest?)", ans.Estimate, 32*32)
	}

	// Error path: the engine retains nothing and must NOT call release.
	var badCalls atomic.Int32
	err = tn.IngestGroups([]stream.Group{{Name: "missing", Updates: sameValueBatch(1, 0)}},
		func() { badCalls.Add(1) })
	if err == nil || badCalls.Load() != 0 {
		t.Fatalf("failed request: err=%v releaseCalls=%d, want error and 0 calls", err, badCalls.Load())
	}

	// Empty request: released immediately.
	var emptyCalls atomic.Int32
	if err := tn.IngestGroups(nil, func() { emptyCalls.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if emptyCalls.Load() != 1 {
		t.Fatalf("empty request release calls %d, want 1", emptyCalls.Load())
	}
}

// TestIngestGroupsReleaseSyncAndUnlistened covers the two paths that
// never enqueue: the synchronous (no pipeline) mode, and a stream no
// synopsis listens to.
func TestIngestGroupsReleaseSyncAndUnlistened(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant("s")
	setupTenant(t, tn)
	var calls atomic.Int32
	if err := tn.IngestGroups([]stream.Group{
		{Name: "F", Updates: sameValueBatch(5, 1)},
	}, func() { calls.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("sync-mode release calls %d, want 1", calls.Load())
	}

	// A declared stream with no listening synopsis, under a pipeline.
	if err := tn.DeclareStream("idle", 1024); err != nil {
		t.Fatal(err)
	}
	if err := e.StartIngest(IngestConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer e.StopIngest()
	released := make(chan struct{})
	if err := tn.IngestGroups([]stream.Group{
		{Name: "idle", Updates: sameValueBatch(9, 3)},
	}, func() { close(released) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("release never fired for unlistened stream")
	}
	e.Flush()
	if got := tn.Stats().UpdateCounts["idle"]; got != 9 {
		t.Fatalf("unlistened stream count %d, want 9", got)
	}
}

// TestIngestGroupsMatchesSequentialUpdates: one multi-group request is
// bit-identical to element-wise Update calls in order.
func TestIngestGroupsMatchesSequentialUpdates(t *testing.T) {
	mk := func() (*Engine, *Tenant) {
		e := mustEngine(t)
		tn := e.Tenant("eq")
		setupTenant(t, tn)
		return e, tn
	}
	e1, t1 := mk()
	_, t2 := mk()

	var fups, gups []stream.Update
	for i := 0; i < 200; i++ {
		fups = append(fups, stream.Update{Value: uint64(i * 13 % 1024), Weight: int64(i%5) - 1})
		gups = append(gups, stream.Update{Value: uint64(i * 7 % 1024), Weight: 1})
	}

	if err := e1.StartIngest(IngestConfig{Workers: 3, BatchSize: 32}); err != nil {
		t.Fatal(err)
	}
	if err := t1.IngestGroups([]stream.Group{
		{Name: "F", Updates: fups},
		{Name: "G", Updates: gups},
	}, nil); err != nil {
		t.Fatal(err)
	}
	e1.Flush()
	e1.StopIngest()

	for _, u := range fups {
		if err := t2.Update("F", u.Value, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range gups {
		if err := t2.Update("G", u.Value, u.Weight); err != nil {
			t.Fatal(err)
		}
	}

	a1, err := t1.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := t2.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if a1.Estimate != a2.Estimate {
		t.Fatalf("grouped ingest estimate %d != sequential %d", a1.Estimate, a2.Estimate)
	}
}
