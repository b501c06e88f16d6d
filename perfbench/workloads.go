package main

import (
	"fmt"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/loadtest"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// The sketchd defaults every workload runs with, and the shape of its
// input streams.
const (
	tables        = 7
	buckets       = 2048
	sketchSeed    = 42
	ingestWorkers = 2
	domain        = 1 << 16
	zipfSkew      = 1.0
	batchSize     = 256
	poolFrames    = 2048 // distinct pre-built batches, cycled through by every window
	ingestSenders = 2    // the host has 2 CPUs
)

var sketchConfig = core.Config{Tables: tables, Buckets: buckets, Seed: sketchSeed}

// workloadSpec is one named traffic mix.
type workloadSpec struct {
	name string
	sksp bool // closed-loop SKSP ingest
	// jsonRate, answerRate and statsRate are open-loop rates per second;
	// jsonRate counts updates, sent in batches of batchSize.
	jsonRate, answerRate, statsRate float64
	// idleAnswers is how many answers follow the window on an otherwise
	// idle server.
	idleAnswers int
	seconds     time.Duration
}

var workloads = []workloadSpec{
	{name: "skimp-ingest", sksp: true, idleAnswers: 400},
	{name: "json-mixed", jsonRate: 200_000, answerRate: 10, statsRate: 10},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// streamOf names the stream pool frame i belongs to: F and G alternate
// batch by batch.
func streamOf(i int) string {
	if i%2 == 0 {
		return "F"
	}
	return "G"
}

// inputs is a workload's pre-built traffic: poolFrames batches of
// batchSize Zipf updates, in the shapes the SKSP and JSON clients take.
type inputs struct {
	frames [][]stream.Update
	groups [][]stream.Group
	json   [][]loadtest.Update
	// genNs is the time building them took.
	genNs time.Duration
}

// makeInputs draws the seeded pool. F and G draw from independent
// sources over the same Zipf distribution.
func makeInputs(seed int64) (*inputs, error) {
	t0 := time.Now()
	gens := make([]workload.Generator, 2)
	for s := range gens {
		z, err := workload.NewZipf(domain, zipfSkew, seed*2+int64(s))
		if err != nil {
			return nil, err
		}
		gens[s] = z
	}
	in := &inputs{}
	for i := range poolFrames {
		ups := workload.MakeStream(gens[i%2], batchSize)
		name := streamOf(i)
		js := make([]loadtest.Update, len(ups))
		for k, u := range ups {
			js[k] = loadtest.Update{Stream: name, Value: u.Value}
		}
		in.frames = append(in.frames, ups)
		in.groups = append(in.groups, []stream.Group{{Name: name, Updates: ups}})
		in.json = append(in.json, js)
	}
	in.genNs = time.Since(t0)
	return in, nil
}

func (in *inputs) updates() int { return len(in.frames) * batchSize }
