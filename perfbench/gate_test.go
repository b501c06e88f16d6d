package main

import (
	"strings"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// serverEstimate is what a server holding these unit updates answers:
// sketches fed update by update, as the ingest path feeds them.
func serverEstimate(t *testing.T, f, g []stream.Update) int64 {
	t.Helper()
	sf, sg := core.MustNewHashSketch(sketchConfig), core.MustNewHashSketch(sketchConfig)
	sf.UpdateBatch(f)
	sg.UpdateBatch(g)
	est, err := core.EstimateJoin(sf, sg, domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	return est.Total
}

func zipfUpdates(t *testing.T, seed int64, n int) []stream.Update {
	t.Helper()
	z, err := workload.NewZipf(domain, zipfSkew, seed)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MakeStream(z, n)
}

func freqOf(ups []stream.Update) []int64 {
	f := make([]int64, domain)
	for _, u := range ups {
		f[u.Value] += u.Weight
	}
	return f
}

func gateFor(t *testing.T) (gateInput, []stream.Update, []stream.Update) {
	t.Helper()
	f, g := zipfUpdates(t, 1, 20000), zipfUpdates(t, 2, 20000)
	n := int64(len(f) + len(g))
	return gateInput{
		windowAcked: n, windowApplied: n, acked: n, applied: n,
		estimate: serverEstimate(t, f, g),
		freqF:    freqOf(f), freqG: freqOf(g),
	}, f, g
}

func TestGateAcceptsMatchingRun(t *testing.T) {
	in, _, _ := gateFor(t)
	r, err := checkGate(in)
	if err != nil {
		t.Fatalf("gate rejected a correct run: %v", err)
	}
	if r.reference != in.estimate || r.exact <= 0 || r.bound <= 0 {
		t.Errorf("gate figures %+v", r)
	}
}

func TestGateRejectsDroppedUpdate(t *testing.T) {
	in, f, g := gateFor(t)
	// The server applied one update fewer than was acked.
	short := in
	short.applied--
	if _, err := checkGate(short); err == nil || !strings.Contains(err.Error(), "updatesApplied") {
		t.Errorf("gate accepted applied = acked-1: %v", err)
	}
	short = in
	short.windowApplied--
	if _, err := checkGate(short); err == nil {
		t.Error("gate accepted a window delta of acked-1")
	}
	// The counts agree but the server's synopsis lost an update.
	lost := in
	lost.estimate = serverEstimate(t, f[1:], g)
	if lost.estimate == in.estimate {
		t.Fatal("dropping an update did not change the estimate; pick another update")
	}
	if _, err := checkGate(lost); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Errorf("gate accepted an estimate missing one update: %v", err)
	}
}

func TestGateRejectsPerturbedEstimate(t *testing.T) {
	in, _, _ := gateFor(t)
	in.estimate++
	if _, err := checkGate(in); err == nil {
		t.Error("gate accepted an estimate off by one")
	}
}

func TestGateRejectsEmptyRun(t *testing.T) {
	in := gateInput{freqF: make([]int64, domain), freqG: make([]int64, domain)}
	if _, err := checkGate(in); err == nil {
		t.Error("gate accepted a run with nothing acked")
	}
}

func TestResidualSelfJoinSkipsDenseValues(t *testing.T) {
	f := make([]int64, domain)
	f[0] = 1000 // above ⌈1010/√2048⌉ = 23: dense, left out
	f[1] = 10
	if got := residualSelfJoin(f); got != 100 {
		t.Errorf("residualSelfJoin = %g, want 100", got)
	}
}
