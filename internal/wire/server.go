package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one decoded DATA frame and returns the one reply
// the server writes for it. The handler owns d until it calls release,
// which gives d back to the server's decode pool; it must call release
// exactly once, either before returning or later (sketchd hands it to
// the engine, which fires it once the last shard worker has folded the
// frame). Anything the reply needs must be copied out of d first.
// Handlers run concurrently, one goroutine per connection.
type Handler func(d *Data, release func()) Reply

// Reply is a server's answer to one DATA frame: an ACK, a REJECT or an
// ERROR, selected by Type. Only the fields of that frame type are read.
type Reply struct {
	Type       FrameType // FrameAck, FrameReject or FrameError
	Seq        uint64
	Applied    int64  // ACK: elements admitted
	Duplicate  bool   // ACK: answered from a dedupe window, nothing applied
	RetryAfter uint32 // REJECT: seconds before resending the same frame
	Msg        string // ERROR: why the frame can never succeed
}

// ServerStats is a Server's counters, rendered under /stats "stream".
type ServerStats struct {
	Addr       string `json:"addr"`
	Conns      int64  `json:"conns"`
	ConnsTotal int64  `json:"connsTotal"`
	Frames     int64  `json:"frames"`
	Updates    int64  `json:"updates"` // elements in non-duplicate ACKs
	Duplicates int64  `json:"duplicates"`
	Rejected   int64  `json:"rejected"`
	Errors     int64  `json:"errors"` // ERROR replies plus dropped broken peers
}

// Server is the one SKSP listener skeleton: it accepts, tracks and
// drains persistent connections, exchanges headers, decodes every DATA
// frame into a pooled buffer, and writes and flushes exactly one reply
// per frame. What a frame means is the Handler's business — sketchd
// folds it into the synopses, the cluster merger hash-routes it to the
// shards.
//
// Each pooled *Data keeps its update slab and name intern table across
// frames, so a warm pool decodes with zero allocation. Any protocol
// violation (a non-DATA frame from a client, a payload that passes the
// CRC but does not decode) ends the session: the framing's CRC and
// length checks mean it is a broken peer, not a recoverable hiccup.
type Server struct {
	ln     net.Listener
	handle Handler
	pool   sync.Pool

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup

	connsTotal atomic.Int64
	connsOpen  atomic.Int64
	frames     atomic.Int64
	updates    atomic.Int64
	duplicates atomic.Int64
	rejected   atomic.Int64
	errored    atomic.Int64
}

// headerTimeout is the slow-header guard, like http.Server's: a peer
// that connects but never sends its header does not hold a session.
const headerTimeout = 5 * time.Second

// NewServer returns a Server that answers frames arriving on ln with h.
// Call Serve to start accepting and Shutdown to drain.
func NewServer(ln net.Listener, h Handler) *Server {
	s := &Server{ln: ln, handle: h, conns: make(map[net.Conn]struct{})}
	s.pool.New = func() any { return &Data{} }
	return s
}

// Serve accepts connections until the listener closes. The returned
// error is nil on a requested shutdown.
func (s *Server) Serve() error {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.connsOpen.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.connsOpen.Add(-1)
			s.serveConn(nc)
			s.mu.Lock()
			delete(s.conns, nc)
			s.mu.Unlock()
			nc.Close()
		}()
	}
}

// Shutdown drains the listener: stop accepting, close every connection,
// and wait for the handlers to finish their in-flight frame. A client
// mid-frame never got a reply and replays on reconnect.
func (s *Server) Shutdown() {
	s.ln.Close()
	s.mu.Lock()
	s.closing = true
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serveConn runs one SKSP session: header exchange, then a frame loop
// that ends when the peer closes, the connection breaks, or the peer
// breaks the protocol.
func (s *Server) serveConn(nc net.Conn) {
	rd := NewReader(nc)
	w := NewWriter(nc)
	nc.SetReadDeadline(time.Now().Add(headerTimeout))
	if err := rd.ReadHeader(); err != nil {
		return
	}
	nc.SetReadDeadline(time.Time{})
	if err := w.WriteHeader(); err != nil || w.Flush() != nil {
		return
	}
	for {
		ft, payload, err := rd.Next()
		if err != nil {
			return
		}
		if ft != FrameData {
			s.errored.Add(1) // clients only send DATA
			return
		}
		s.frames.Add(1)
		d := s.pool.Get().(*Data)
		if err := DecodeData(payload, d); err != nil {
			s.pool.Put(d)
			s.errored.Add(1)
			return
		}
		if s.write(w, s.handle(d, func() { s.pool.Put(d) })) != nil {
			return
		}
	}
}

// write counts r and writes and flushes it as one reply frame.
func (s *Server) write(w *Writer, r Reply) error {
	var err error
	switch r.Type {
	case FrameAck:
		if r.Duplicate {
			s.duplicates.Add(1)
		} else {
			s.updates.Add(r.Applied)
		}
		err = w.WriteAck(Ack{Seq: r.Seq, Applied: r.Applied, Duplicate: r.Duplicate})
	case FrameReject:
		s.rejected.Add(1)
		err = w.WriteReject(Reject{Seq: r.Seq, RetryAfter: r.RetryAfter})
	case FrameError:
		s.errored.Add(1)
		err = w.WriteError(ErrorFrame{Seq: r.Seq, Msg: r.Msg})
	default:
		return fmt.Errorf("wire: handler returned a reply of frame type %d", r.Type)
	}
	if err != nil {
		return err
	}
	return w.Flush()
}

// Stats snapshots the counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Addr:       s.ln.Addr().String(),
		Conns:      s.connsOpen.Load(),
		ConnsTotal: s.connsTotal.Load(),
		Frames:     s.frames.Load(),
		Updates:    s.updates.Load(),
		Duplicates: s.duplicates.Load(),
		Rejected:   s.rejected.Load(),
		Errors:     s.errored.Load(),
	}
}
