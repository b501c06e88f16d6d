package wire

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startServer serves h on a loopback listener until the test ends.
func startServer(t *testing.T, h Handler) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln, h)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s
}

// dialServer opens a client session: header out, header back.
func dialServer(t *testing.T, s *Server) (net.Conn, *Reader, *Writer) {
	t.Helper()
	nc, err := net.Dial("tcp", s.Stats().Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	rd, w := NewReader(nc), NewWriter(nc)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rd.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	return nc, rd, w
}

// expectClosed asserts the server ended the session.
func expectClosed(t *testing.T, rd *Reader) {
	t.Helper()
	if ft, _, err := rd.Next(); err == nil {
		t.Fatalf("server answered a %d frame; want the connection dropped", ft)
	}
}

// waitFor polls cond until it holds or a deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerPipelinedRepliesInOrder: a burst of frames written in one
// flush gets exactly one reply per frame, in frame order, and the
// counters add up.
func TestServerPipelinedRepliesInOrder(t *testing.T) {
	s := startServer(t, func(d *Data, release func()) Reply {
		defer release()
		var n int64
		for _, g := range d.Groups {
			n += int64(len(g.Updates))
		}
		return Reply{Type: FrameAck, Seq: d.Seq, Applied: n}
	})
	_, rd, w := dialServer(t, s)
	const frames = 50
	for seq := uint64(1); seq <= frames; seq++ {
		if err := w.WriteData(testData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= frames; seq++ {
		ft, payload, err := rd.Next()
		if err != nil || ft != FrameAck {
			t.Fatalf("reply %d: type %d, err %v", seq, ft, err)
		}
		a, err := DecodeAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seq != seq || a.Applied != 3 {
			t.Fatalf("reply %d = %+v, want seq %d applied 3", seq, a, seq)
		}
	}
	st := s.Stats()
	if st.Frames != frames || st.Updates != 3*frames || st.Conns != 1 || st.ConnsTotal != 1 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestServerDropsBrokenPeer: a payload that passes the CRC but does not
// decode, or a frame type clients never send, ends the session without
// reaching the handler and counts under errors.
func TestServerDropsBrokenPeer(t *testing.T) {
	cases := map[string]func(w *Writer) error{
		"malformed payload": func(w *Writer) error {
			w.scratch = append(w.scratch[:0], 1, 2, 3)
			return w.writeFrame(FrameData)
		},
		"non-DATA frame": func(w *Writer) error { return w.WriteAck(Ack{Seq: 1}) },
	}
	for name, send := range cases {
		t.Run(name, func(t *testing.T) {
			var handled atomic.Int64
			s := startServer(t, func(d *Data, release func()) Reply {
				handled.Add(1)
				release()
				return Reply{Type: FrameAck, Seq: d.Seq}
			})
			_, rd, w := dialServer(t, s)
			if err := send(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			expectClosed(t, rd)
			if handled.Load() != 0 {
				t.Fatal("a broken frame reached the handler")
			}
			if st := s.Stats(); st.Errors != 1 || st.Updates != 0 {
				t.Fatalf("stats %+v, want one error", st)
			}
		})
	}
}

// TestServerReleaseOncePerFrame: every decoded frame's release runs
// exactly once whichever way the handler answers — ACK (released after
// the reply, as the engine does), REJECT, ERROR, or an ACK that can no
// longer be delivered because the peer hung up.
func TestServerReleaseOncePerFrame(t *testing.T) {
	var handled, released atomic.Int64
	hungUp := make(chan struct{})
	s := startServer(t, func(d *Data, release func()) Reply {
		handled.Add(1)
		seq := d.Seq
		var once atomic.Bool
		rel := func() {
			if !once.CompareAndSwap(false, true) {
				t.Errorf("seq %d released twice", seq)
			}
			released.Add(1)
			release()
		}
		switch seq % 4 {
		case 0:
			go rel() // ownership outlives the handler
			return Reply{Type: FrameAck, Seq: seq, Applied: 3}
		case 1:
			rel()
			return Reply{Type: FrameReject, Seq: seq, RetryAfter: 1}
		case 2:
			rel()
			return Reply{Type: FrameError, Seq: seq, Msg: "unknown stream"}
		default:
			<-hungUp
			rel()
			return Reply{Type: FrameAck, Seq: seq, Applied: 3}
		}
	})
	nc, rd, w := dialServer(t, s)
	want := []FrameType{FrameAck, FrameReject, FrameError}
	for seq := uint64(4); seq <= 6; seq++ {
		if err := w.WriteData(testData(seq)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if ft, _, err := rd.Next(); err != nil || ft != want[seq-4] {
			t.Fatalf("seq %d: reply type %d, err %v; want %d", seq, ft, err, want[seq-4])
		}
	}
	// Seq 7 blocks in the handler until the client is gone; its reply
	// goes nowhere and the session ends.
	if err := w.WriteData(testData(7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seq 7 to reach the handler", func() bool { return handled.Load() == 4 })
	nc.Close()
	close(hungUp)
	waitFor(t, "the dropped session to end", func() bool { return s.Stats().Conns == 0 })
	waitFor(t, "every release", func() bool { return released.Load() == 4 })

	st := s.Stats()
	if st.Frames != 4 || st.Updates != 6 || st.Rejected != 1 || st.Errors != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestServerShutdownWaitsForHandler: Shutdown closes live connections
// but returns only after a handler already in flight has returned.
func TestServerShutdownWaitsForHandler(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, unblock := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	s := NewServer(ln, func(d *Data, release func()) Reply {
		close(entered)
		<-unblock
		release()
		returned.Store(true)
		return Reply{Type: FrameAck, Seq: d.Seq}
	})
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	_, rd, w := dialServer(t, s)
	if err := w.WriteData(testData(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	<-entered
	shut := make(chan struct{})
	go func() { s.Shutdown(); close(shut) }()

	expectClosed(t, rd) // live connections close at once
	select {
	case <-shut:
		t.Fatal("Shutdown returned while a handler was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(unblock)
	<-shut
	if !returned.Load() {
		t.Fatal("Shutdown returned before the handler did")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
}
