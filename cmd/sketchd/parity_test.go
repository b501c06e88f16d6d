package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// parityEnv is one sketchd with both front ends over a pipelined engine
// whose single worker can be parked, so a test can saturate it.
type parityEnv struct {
	eng     *engine.Engine
	http    string
	sksp    string
	entered chan struct{}
	gate    chan struct{}
}

func newParityEnv(t *testing.T) *parityEnv {
	t.Helper()
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 128, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	env := &parityEnv{eng: eng, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	if err := eng.RegisterPredicate("gate", func(v uint64, _ int64) bool {
		if v == 63 {
			env.entered <- struct{}{}
			<-env.gate
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	def := eng.Tenant(engine.DefaultTenant)
	for _, s := range []string{"F", "G"} {
		if err := def.DeclareStream(s, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := def.RegisterQuery(engine.QuerySpec{Name: "q", Agg: engine.Count,
		Left: engine.Side{Stream: "F", Predicate: "gate"}, Right: engine.Side{Stream: "G"}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 1, BatchSize: 1, QueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng)
	ts := httptest.NewServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := newStreamServer(srv, ln)
	done := make(chan struct{})
	go func() { defer close(done); _ = sv.Serve() }()
	t.Cleanup(func() {
		env.release()
		sv.Shutdown()
		<-done
		ts.Close()
		eng.StopIngest()
	})
	env.http, env.sksp = ts.URL, ln.Addr().String()
	return env
}

// saturate parks the worker on value 63 of F and fills its depth-1
// queue behind it.
func (env *parityEnv) saturate(t *testing.T) {
	t.Helper()
	if err := env.eng.IngestBatch("F", []stream.Update{{Value: 63, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	<-env.entered
	if err := env.eng.IngestBatch("F", []stream.Update{{Value: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if !env.eng.IngestSaturated() {
		t.Fatal("parked worker behind a full queue does not read as saturated")
	}
}

// release unparks the worker; safe to call more than once.
func (env *parityEnv) release() {
	select {
	case <-env.gate:
	default:
		close(env.gate)
	}
}

// counters is what an admission may move.
type counters struct {
	Enqueued, Rejected, TenantRejected int64
	Counts                             map[string]int64
}

func (env *parityEnv) counters(tenant string) counters {
	env.release()
	env.eng.Flush()
	ing := env.eng.IngestStats()
	st := env.eng.Tenant(tenant).Stats()
	return counters{ing.UpdatesEnqueued, ing.Rejected, st.Rejected, st.UpdateCounts}
}

// outcome is an admission result in transport-neutral terms.
type outcome struct {
	Type    wire.FrameType
	Applied int64
	Dup     bool
	Msg     string
}

// viaHTTP posts d as a JSON /update carrying d's identity as its
// Idempotency-Key.
func viaHTTP(t *testing.T, base string, d *wire.Data) outcome {
	t.Helper()
	var batch []map[string]any
	for _, g := range d.Groups {
		for _, u := range g.Updates {
			batch = append(batch, map[string]any{"tenant": d.Tenant, "stream": g.Name, "value": u.Value, "weight": u.Weight})
		}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/update", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", d.ClientID+":"+strconv.FormatUint(d.Seq, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Applied int64  `json:"applied"`
		Dup     bool   `json:"deduplicated"`
		Error   string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return outcome{Type: wire.FrameAck, Applied: out.Applied, Dup: out.Dup}
	case http.StatusTooManyRequests:
		return outcome{Type: wire.FrameReject}
	case http.StatusBadRequest:
		return outcome{Type: wire.FrameError, Msg: out.Error}
	}
	t.Fatalf("/update status %d", resp.StatusCode)
	return outcome{}
}

// viaFrame sends d as one SKSP DATA frame on a fresh connection.
func viaFrame(t *testing.T, addr string, d *wire.Data) outcome {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	w, rd := wire.NewWriter(nc), wire.NewReader(nc)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteData(d); err != nil || w.Flush() != nil {
		t.Fatal("frame write failed")
	}
	if err := rd.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	ft, p, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	switch ft {
	case wire.FrameAck:
		a, err := wire.DecodeAck(p)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{Type: ft, Applied: a.Applied, Dup: a.Duplicate}
	case wire.FrameReject:
		return outcome{Type: ft}
	case wire.FrameError:
		e, err := wire.DecodeError(p)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{Type: ft, Msg: e.Msg}
	}
	t.Fatalf("reply frame type %d", ft)
	return outcome{}
}

// TestUpdateFrameParity: the same request through POST /update and
// through an SKSP frame gets the same outcome, the same error text and
// the same counter movements, because both end in server.admit.
func TestUpdateFrameParity(t *testing.T) {
	two := []stream.Group{{Name: "F", Updates: []stream.Update{{Value: 1, Weight: 1}, {Value: 2, Weight: 3}}}, {Name: "G", Updates: []stream.Update{{Value: 1, Weight: 0}}}}
	cases := []struct {
		name     string
		tenant   string
		groups   []stream.Group
		quota    int64
		replay   bool
		saturate bool
		want     outcome
	}{
		{name: "fresh", groups: two, want: outcome{Type: wire.FrameAck, Applied: 3}},
		{name: "replay", groups: two, replay: true, want: outcome{Type: wire.FrameAck, Applied: 3, Dup: true}},
		{name: "bad tenant", tenant: "no/slash", groups: two, want: outcome{Type: wire.FrameError}},
		{name: "unknown stream", groups: []stream.Group{{Name: "nope", Updates: []stream.Update{{Value: 1, Weight: 1}}}}, want: outcome{Type: wire.FrameError}},
		{name: "out of domain", groups: []stream.Group{{Name: "G", Updates: []stream.Update{{Value: 999, Weight: 1}}}}, want: outcome{Type: wire.FrameError}},
		{name: "quota", groups: two, quota: 2, want: outcome{Type: wire.FrameReject}},
		{name: "saturated", groups: two, saturate: true, want: outcome{Type: wire.FrameReject}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]outcome
			var moved [2]counters
			for i, send := range []func(*testing.T, *parityEnv, *wire.Data) outcome{
				func(t *testing.T, env *parityEnv, d *wire.Data) outcome { return viaHTTP(t, env.http, d) },
				func(t *testing.T, env *parityEnv, d *wire.Data) outcome { return viaFrame(t, env.sksp, d) },
			} {
				env := newParityEnv(t)
				d := &wire.Data{ClientID: "parity", Seq: 7, Tenant: tc.tenant, Groups: tc.groups}
				tenant := engine.DefaultTenant
				if tc.quota > 0 {
					if err := env.eng.SetQuota(tenant, engine.Quota{MaxPendingUpdates: tc.quota}); err != nil {
						t.Fatal(err)
					}
				}
				if tc.replay {
					send(t, env, d)
				}
				if tc.saturate {
					env.saturate(t)
				}
				got[i] = send(t, env, d)
				moved[i] = env.counters(tenant)
			}
			if got[0].Type != tc.want.Type || got[0].Applied != tc.want.Applied || got[0].Dup != tc.want.Dup {
				t.Fatalf("HTTP outcome %+v, want %+v", got[0], tc.want)
			}
			if got[0] != got[1] {
				t.Fatalf("HTTP outcome %+v, SKSP outcome %+v", got[0], got[1])
			}
			h, f := moved[0], moved[1]
			if h.Enqueued != f.Enqueued || h.Rejected != f.Rejected || h.TenantRejected != f.TenantRejected ||
				h.Counts["F"] != f.Counts["F"] || h.Counts["G"] != f.Counts["G"] {
				t.Fatalf("counters moved differently: HTTP %+v, SKSP %+v", h, f)
			}
		})
	}
}
