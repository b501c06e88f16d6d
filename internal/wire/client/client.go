// Package client is the Go client for SKSP, sketchd's binary streaming
// ingest protocol (internal/wire). A Conn multiplexes concurrent Send
// calls over one persistent TCP connection, assigning every frame a
// monotonically increasing seq under a stable clientID. The server
// dedupes (clientID, seq), which is what makes the client's error
// handling simple and safe:
//
//   - REJECT (the protocol's 429) applied nothing: resend the SAME seq
//     after the jittered-exponential backoff, floored by the server's
//     Retry-After hint.
//   - A dropped connection is indistinguishable from a lost ACK: the
//     client reconnects (under the same backoff policy) and replays
//     every unacknowledged frame in seq order. Frames the server had
//     already applied are answered from its dedupe window without
//     re-applying, so replay never double-counts.
//   - ERROR frames are permanent: the same frame can never succeed, so
//     Send fails without retrying.
package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"skimsketch/internal/distributed"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// Outcome reports how one logical batch landed.
type Outcome struct {
	// Attempts counts wire attempts observed by this Send: the initial
	// send plus every REJECT-triggered resend. (Transparent replays after
	// a reconnect are part of the same attempt — the client was still
	// waiting on the same frame.)
	Attempts int
	// Rejected429 counts REJECT responses.
	Rejected429 int
	// Applied is the element count acknowledged by the server.
	Applied int64
	// Deduplicated is set when the final ACK came from the server's
	// dedupe window (an earlier transmission had already applied).
	Deduplicated bool
}

// Options configures a Conn.
type Options struct {
	// ClientID identifies this client in the server's dedupe window. It
	// MUST be unique per client incarnation (a restarted client reusing
	// an old ID with restarting seqs would collide with remembered
	// outcomes); empty generates a random one.
	ClientID string
	// Backoff is the shared policy for REJECT resends and reconnects.
	// The zero value retries forever with 100ms..5s jittered delays;
	// set Attempts to bound it.
	Backoff distributed.Backoff
	// DialTimeout bounds each dial attempt. <= 0 defaults to 5s.
	DialTimeout time.Duration
}

// Conn is a persistent SKSP connection. It is safe for concurrent use:
// Send calls pipeline onto one TCP connection and are matched to their
// replies by seq. The first Send dials lazily.
type Conn struct {
	addr string
	opts Options

	mu           sync.Mutex
	nc           net.Conn
	w            *wire.Writer
	gen          int // connection generation, guards stale failure reports
	nextSeq      uint64
	pending      map[uint64]*pendingFrame
	reconnecting bool
	closed       bool
	closedCh     chan struct{}

	wmu sync.Mutex // serializes frame writes+flushes, NEVER held with mu
}

type pendingFrame struct {
	seq    uint64
	tenant string
	groups []stream.Group
	ch     chan result
}

type resultKind int

const (
	rAck resultKind = iota
	rReject
	rError
	rFail
)

type result struct {
	kind       resultKind
	applied    int64
	dup        bool
	retryAfter time.Duration
	msg        string
	err        error
}

// New returns an unconnected Conn for addr. Dialing happens on the
// first Send (or on Ping).
func New(addr string, opts Options) *Conn {
	if opts.ClientID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic("wire client: crypto/rand unavailable: " + err.Error())
		}
		opts.ClientID = "sksp-" + hex.EncodeToString(b[:])
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	return &Conn{
		addr:     addr,
		opts:     opts,
		pending:  make(map[uint64]*pendingFrame),
		closedCh: make(chan struct{}),
	}
}

// ClientID returns the dedupe identity frames are sent under.
func (c *Conn) ClientID() string { return c.opts.ClientID }

// Ping establishes the connection (dial + header exchange) without
// sending data, so startup errors surface before the first batch.
func (c *Conn) Ping(ctx context.Context) error {
	_, err := c.Send(ctx, "", nil)
	return err
}

// Send delivers one logical batch — updates grouped by stream, for one
// tenant ("" = default) — and blocks until the server acknowledges it,
// permanently rejects it, the retry budget is spent, or ctx is done.
// The groups' buffers are owned by the caller again once Send returns.
func (c *Conn) Send(ctx context.Context, tenant string, groups []stream.Group) (Outcome, error) {
	return c.SendTimed(ctx, tenant, groups, nil)
}

// SendTimed is Send with a per-attempt latency hook (for harnesses
// recording one histogram sample per wire attempt).
func (c *Conn) SendTimed(ctx context.Context, tenant string, groups []stream.Group, onAttempt func(time.Duration)) (Outcome, error) {
	var out Outcome
	total := 0
	for i := range groups {
		total += len(groups[i].Updates)
	}
	if total == 0 && groups == nil {
		// Ping path: an empty frame still round-trips an ACK.
		groups = []stream.Group{}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return out, fmt.Errorf("wire client: connection closed")
	}
	c.nextSeq++
	p := &pendingFrame{seq: c.nextSeq, tenant: tenant, groups: groups, ch: make(chan result, 4)}
	c.pending[p.seq] = p
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, p.seq)
		c.mu.Unlock()
	}()

	// One attempt is one transmission and its reply. Only a REJECT is
	// retried, under the backoff policy floored by the server's hint; an
	// ERROR, a failed connection or a canceled ctx ends the loop as is.
	err := c.opts.Backoff.Retry(ctx, func(ctx context.Context) error {
		// Before a resend, drop a straggler reply delivered while
		// sleeping (a duplicate transmission racing the reject).
		for out.Attempts > 0 && len(p.ch) > 0 {
			<-p.ch
		}
		start := time.Now()
		c.writeFrame(p)
		var res result
		select {
		case res = <-p.ch:
		case <-ctx.Done():
			return distributed.Permanent(ctx.Err())
		}
		if onAttempt != nil {
			onAttempt(time.Since(start))
		}
		out.Attempts++
		switch res.kind {
		case rAck:
			out.Applied = res.applied
			out.Deduplicated = res.dup
			return nil
		case rReject:
			out.Rejected429++
			return &distributed.RetryAfterError{After: res.retryAfter, Err: fmt.Errorf("wire client: seq %d rejected", p.seq)}
		case rError:
			return distributed.Permanent(fmt.Errorf("wire client: server rejected seq %d permanently: %s", p.seq, res.msg))
		default:
			return distributed.Permanent(fmt.Errorf("wire client: %w", res.err))
		}
	})
	return out, err
}

// writeFrame sends p on the live connection, or kicks off a reconnect
// that will replay it. Write errors are routed through connFailed, so
// the caller just waits on p.ch either way.
func (c *Conn) writeFrame(p *pendingFrame) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if c.nc == nil {
		c.startReconnectLocked()
		c.mu.Unlock()
		return // the reconnect's replay pass will deliver p
	}
	w, gen := c.w, c.gen
	c.mu.Unlock()

	d := wire.Data{ClientID: c.opts.ClientID, Seq: p.seq, Tenant: p.tenant, Groups: p.groups}
	c.wmu.Lock()
	err := w.WriteData(&d)
	if err == nil {
		err = w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.connFailed(gen, err)
	}
}

// startReconnectLocked launches the reconnect goroutine once. Callers
// hold c.mu.
func (c *Conn) startReconnectLocked() {
	if c.reconnecting || c.closed {
		return
	}
	c.reconnecting = true
	go c.reconnectLoop()
}

// reconnectLoop dials under the backoff policy, re-exchanges headers,
// and replays every pending frame in seq order. If the attempt budget
// is spent, every waiting Send fails (and the next Send starts a fresh
// loop).
func (c *Conn) reconnectLoop() {
	for attempt := 0; ; attempt++ {
		if b := c.opts.Backoff; b.Attempts > 0 && attempt >= b.Attempts {
			err := fmt.Errorf("reconnect to %s: retry budget (%d) spent", c.addr, b.Attempts)
			c.mu.Lock()
			c.reconnecting = false
			c.failAllLocked(err)
			c.mu.Unlock()
			return
		}
		if attempt > 0 {
			t := time.NewTimer(c.opts.Backoff.Delay(attempt - 1))
			select {
			case <-c.closedCh:
				t.Stop()
			case <-t.C:
			}
		}
		c.mu.Lock()
		if c.closed {
			c.reconnecting = false
			c.failAllLocked(fmt.Errorf("connection closed"))
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		nc, rd, w, err := c.dial()
		if err != nil {
			continue
		}

		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			nc.Close()
			return
		}
		c.gen++
		gen := c.gen
		c.nc, c.w = nc, w
		replay := make([]*pendingFrame, 0, len(c.pending))
		for _, p := range c.pending {
			replay = append(replay, p)
		}
		c.reconnecting = false
		c.mu.Unlock()
		sort.Slice(replay, func(i, j int) bool { return replay[i].seq < replay[j].seq })

		//sketchlint:ignore ctxleak -- readLoop exits when Close or connFailed closes nc: rd.Next then returns an error and the goroutine falls out; TestCloseUnblocksReadLoop pins this
		go c.readLoop(rd, gen)
		for _, p := range replay {
			d := wire.Data{ClientID: c.opts.ClientID, Seq: p.seq, Tenant: p.tenant, Groups: p.groups}
			c.wmu.Lock()
			err := w.WriteData(&d)
			if err == nil {
				err = w.Flush()
			}
			c.wmu.Unlock()
			if err != nil {
				c.connFailed(gen, err)
				return // connFailed restarted the loop in a new goroutine
			}
		}
		return
	}
}

// dial opens a TCP connection and exchanges SKSP headers.
func (c *Conn) dial() (net.Conn, *wire.Reader, *wire.Writer, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, nil, nil, err
	}
	w := wire.NewWriter(nc)
	if err := w.WriteHeader(); err == nil {
		err = w.Flush()
	} else {
		nc.Close()
		return nil, nil, nil, err
	}
	rd := wire.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(c.opts.DialTimeout))
	if err := rd.ReadHeader(); err != nil {
		nc.Close()
		return nil, nil, nil, err
	}
	nc.SetReadDeadline(time.Time{})
	return nc, rd, w, nil
}

// readLoop dispatches server frames to their pending Send by seq.
func (c *Conn) readLoop(rd *wire.Reader, gen int) {
	for {
		ft, payload, err := rd.Next()
		if err != nil {
			c.connFailed(gen, err)
			return
		}
		var seq uint64
		var res result
		switch ft {
		case wire.FrameAck:
			a, err := wire.DecodeAck(payload)
			if err != nil {
				c.connFailed(gen, err)
				return
			}
			seq, res = a.Seq, result{kind: rAck, applied: a.Applied, dup: a.Duplicate}
		case wire.FrameReject:
			r, err := wire.DecodeReject(payload)
			if err != nil {
				c.connFailed(gen, err)
				return
			}
			seq, res = r.Seq, result{kind: rReject, retryAfter: time.Duration(r.RetryAfter) * time.Second}
		case wire.FrameError:
			e, err := wire.DecodeError(payload)
			if err != nil {
				c.connFailed(gen, err)
				return
			}
			seq, res = e.Seq, result{kind: rError, msg: e.Msg}
		default:
			c.connFailed(gen, fmt.Errorf("unexpected %d frame from server", ft))
			return
		}
		c.mu.Lock()
		p := c.pending[seq]
		c.mu.Unlock()
		if p != nil {
			select {
			case p.ch <- res:
			default: // duplicate delivery; the Send already has an answer
			}
		}
	}
}

// connFailed tears down generation gen (if still current) and starts a
// reconnect, so every waiting Send rides the replay instead of failing.
func (c *Conn) connFailed(gen int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || gen != c.gen {
		return
	}
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.w = nil, nil
	}
	if len(c.pending) > 0 {
		c.startReconnectLocked()
	}
}

// failAllLocked answers every pending Send with a failure. Callers hold
// c.mu.
func (c *Conn) failAllLocked(err error) {
	for _, p := range c.pending {
		select {
		case p.ch <- result{kind: rFail, err: err}:
		default:
		}
	}
}

// Close tears the connection down and fails outstanding Sends. Further
// Sends error immediately.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.closedCh)
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.w = nil, nil
	}
	c.failAllLocked(fmt.Errorf("connection closed"))
	return nil
}

// Batcher accumulates updates by stream and ships them as one SKSP
// frame per Flush. It is not safe for concurrent use; give each
// producer goroutine its own Batcher over the shared Conn.
type Batcher struct {
	C      *Conn
	Tenant string

	groups []stream.Group
	index  map[string]int
	count  int
}

// Add buffers one update and returns the buffered element count (the
// caller flushes at its preferred batch size).
func (b *Batcher) Add(streamName string, value uint64, weight int64) int {
	if b.index == nil {
		b.index = make(map[string]int)
	}
	i, ok := b.index[streamName]
	if !ok {
		i = len(b.groups)
		b.groups = append(b.groups, stream.Group{Name: streamName})
		b.index[streamName] = i
	}
	b.groups[i].Updates = append(b.groups[i].Updates, stream.Update{Value: value, Weight: weight})
	b.count++
	return b.count
}

// Pending returns the buffered element count.
func (b *Batcher) Pending() int { return b.count }

// Flush sends the buffered updates (no-op when empty) and resets the
// buffers for reuse.
func (b *Batcher) Flush(ctx context.Context) (Outcome, error) {
	if b.count == 0 {
		return Outcome{}, nil
	}
	out, err := b.C.Send(ctx, b.Tenant, b.groups)
	if err == nil {
		for i := range b.groups {
			b.groups[i].Updates = b.groups[i].Updates[:0]
		}
		b.count = 0
	}
	return out, err
}
