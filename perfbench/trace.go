package main

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own code. Times are nanoseconds since the tracer's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing work.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t    *tracer
	id   int64
	par  int64
	req  int64
	name string
	at   time.Time
}

// start opens a span now. parent and req may be 0.
func (t *tracer) start(name string, parent, req int64) open {
	return t.startAt(name, parent, req, time.Now())
}

// startAt opens a span that began at a given time, such as an open-loop
// operation's due time.
func (t *tracer) startAt(name string, parent, req int64, at time.Time) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.ids.Add(1), par: parent, req: req, name: name, at: at}
}

// end closes the span now and returns its id for children recorded
// afterwards (0 when untraced).
func (o open) end() int64 { return o.endAt(time.Now()) }

func (o open) endAt(at time.Time) int64 {
	if o.t == nil {
		return 0
	}
	s := span{
		ID: o.id, Parent: o.par, Req: o.req, Name: o.name,
		Start: int64(o.at.Sub(o.t.origin)), End: int64(at.Sub(o.t.origin)),
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
	return o.id
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span id. Children may overlap each
// other (concurrent calls) and may outlive the parent; only their union
// inside the parent's interval is subtracted.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// byName groups span durations (or self times, when self is non-nil)
// by span name, in nanoseconds.
func byName(spans []span, self map[int64]int64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out[s.Name] = append(out[s.Name], float64(d))
	}
	return out
}

// writeSpans writes one JSON object per span, gzip-compressed, to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
