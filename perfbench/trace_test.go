package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two overlapping children cover [10,40]; a third sticks out of
		// the parent and covers only [90,100] of it.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is charged to its parent only.
		{ID: 5, Parent: 2, Name: "grand", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 60, 2: 14, 3: 20, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := byName(spans, self)["parent"]; len(got) != 1 || got[0] != 60 {
		t.Errorf("byName self = %v, want [60]", got)
	}
	if got := byName(spans, nil)["c"]; len(got) != 1 || got[0] != 30 {
		t.Errorf("byName duration = %v, want [30]", got)
	}
}

func TestTracerLinksChildren(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", 0, 7)
	child := tr.start("child", root.id, 7)
	child.end()
	rootID := root.end()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Parent != rootID || r.ID != rootID || c.Req != 7 || r.Req != 7 {
		t.Errorf("spans not linked: child %+v root %+v", c, r)
	}
	if c.Start < r.Start || c.End > r.End {
		t.Errorf("child %+v outside root %+v", c, r)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.start("x", 0, 0).end(); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}
