package cluster

import (
	"context"
	"net"

	"skimsketch/internal/httpapi"
	"skimsketch/internal/wire"
)

// NewStreamForwarder builds the merger's SKSP ingress on a listener the
// caller opened: the shared wire.Server skeleton, so it speaks the
// binary streaming protocol to clients exactly like a single sketchd
// (docs/FORMATS.md). Instead of applying DATA frames locally, its
// handler hash-routes each update across the shard ring and forwards
// the per-shard sub-batches over HTTP /update. Its counters render
// under the merger's /stats "stream". Call Serve to start accepting and
// Shutdown to drain.
//
// The reliability contract is preserved end to end without merger-side
// state: the client's (clientID, seq) identity is derived per shard
// (deriveKey), so the SHARD dedupe windows carry exactly-once. A
// replayed frame is re-forwarded in full; shards that already applied
// their slice answer "deduplicated" from memory, shards that missed it
// apply it — so the replay converges on exactly-once without the merger
// remembering anything across its own restarts.
//
//   - ACK: every involved shard admitted its slice (a duplicate ACK when
//     every shard answered from its dedupe window).
//   - REJECT: some shard was saturated or unreachable; NOTHING may be
//     assumed applied — resend the same seq after RetryAfter (the
//     derived keys make the resend safe on shards that did apply).
//   - ERROR: some shard refused permanently (unknown stream,
//     out-of-domain value); resending cannot succeed.
func NewStreamForwarder(m *Merger, ln net.Listener) *wire.Server {
	m.stream = wire.NewServer(ln, m.forwardFrame)
	return m.stream
}

// forwardFrame admits one decoded DATA frame through ingest, exactly as
// handleUpdate admits a JSON batch; only the rendering differs.
func (m *Merger) forwardFrame(d *wire.Data, release func()) wire.Reply {
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	out, total := m.ingest(ctx, d)
	switch {
	case out.err == nil:
		return wire.Reply{Type: wire.FrameAck, Seq: d.Seq, Applied: total, Duplicate: out.allDup}
	case out.kind == fanPermanent:
		return wire.Reply{Type: wire.FrameError, Seq: d.Seq, Msg: out.err.Error()}
	default:
		// Saturated or unreachable shard: retryable. The hint is the
		// largest shard Retry-After, floored at the merger's own.
		return wire.Reply{Type: wire.FrameReject, Seq: d.Seq, RetryAfter: uint32(httpapi.RetryAfter(out.retryAfter))}
	}
}
