package main

import (
	"fmt"
	"math"

	"skimsketch/internal/core"
)

// errorBoundC is the constant in front of the paper's error shape
// sqrt(SJres(F)·SJres(G)/b): |estimate − exact join| must stay within
// errorBoundC times it. SJres is the self-join size of the values whose
// true frequency is below the skim threshold ⌈n/√b⌉, the part the skim
// leaves to the sketch.
const errorBoundC = 2.0

// gateInput is what one live run hands the correctness gate.
type gateInput struct {
	// windowAcked is the updates the client got acks for inside the
	// timed window; windowApplied is the server's updatesApplied delta
	// over the same window, read after a flush.
	windowAcked, windowApplied int64
	// acked and applied are the same two counts over the whole run,
	// post-window answers and probes included.
	acked, applied int64
	// estimate is the final /answer estimate for query q.
	estimate int64
	// freqF and freqG are the acked multiset per stream, indexed by
	// value.
	freqF, freqG []int64
}

// gateResult reports the reference figures the gate compared against.
type gateResult struct {
	reference, exact int64
	bound            float64
}

// checkGate fails the run unless the server applied exactly the acked
// updates, the final estimate is bit-identical to an in-process
// core.EstimateJoin over the acked multiset, and that estimate is within
// the paper's error bound of the exact join.
func checkGate(in gateInput) (gateResult, error) {
	var r gateResult
	if in.windowAcked <= 0 {
		return r, fmt.Errorf("gate: no update was acked in the window")
	}
	if in.windowApplied != in.windowAcked {
		return r, fmt.Errorf("gate: window updatesApplied delta %d != acked %d", in.windowApplied, in.windowAcked)
	}
	if in.applied != in.acked {
		return r, fmt.Errorf("gate: run updatesApplied %d != acked %d", in.applied, in.acked)
	}
	if n := total(in.freqF) + total(in.freqG); n != in.acked {
		return r, fmt.Errorf("gate: acked multiset holds %d updates, acks say %d", n, in.acked)
	}
	f, err := sketchOf(in.freqF)
	if err != nil {
		return r, err
	}
	g, err := sketchOf(in.freqG)
	if err != nil {
		return r, err
	}
	est, err := core.EstimateJoin(f, g, domain, nil)
	if err != nil {
		return r, fmt.Errorf("gate: reference estimate: %w", err)
	}
	r.reference = est.Total
	r.exact = innerProduct(in.freqF, in.freqG)
	r.bound = errorBoundC * math.Sqrt(residualSelfJoin(in.freqF)*residualSelfJoin(in.freqG)/buckets)
	if in.estimate != r.reference {
		return r, fmt.Errorf("gate: server estimate %d != in-process reference %d", in.estimate, r.reference)
	}
	if e := math.Abs(float64(in.estimate - r.exact)); e > r.bound {
		return r, fmt.Errorf("gate: |estimate %d - exact %d| = %.0f exceeds bound %.0f", in.estimate, r.exact, e, r.bound)
	}
	return r, nil
}

// sketchOf builds the server's synopsis for a frequency vector: one
// weighted update per value gives the same counters as the unit
// updates it sums, because counter arithmetic is exact.
func sketchOf(freq []int64) (*core.HashSketch, error) {
	s, err := core.NewHashSketch(sketchConfig)
	if err != nil {
		return nil, err
	}
	for v, c := range freq {
		if c != 0 {
			s.Update(uint64(v), c)
		}
	}
	return s, nil
}

func total(freq []int64) int64 {
	var n int64
	for _, c := range freq {
		n += c
	}
	return n
}

func innerProduct(f, g []int64) int64 {
	var j int64
	for v := range f {
		j += f[v] * g[v]
	}
	return j
}

// residualSelfJoin is SJres: Σ f_v² over the values below the default
// skim threshold ⌈n/√b⌉.
func residualSelfJoin(freq []int64) float64 {
	t := int64(math.Ceil(float64(total(freq)) / math.Sqrt(buckets)))
	var sj float64
	for _, c := range freq {
		if c < t {
			sj += float64(c) * float64(c)
		}
	}
	return sj
}
