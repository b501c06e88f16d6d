package cluster

import (
	"context"
	"fmt"
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

// forwardFrame routes one decoded DATA frame across the ring.
func (m *Merger) forwardFrame(d *wire.Data, release func()) wire.Reply {
	perShard := make(map[int][]mergerUpdate)
	var total int64
	for _, g := range d.Groups {
		for _, u := range g.Updates {
			si := m.cfg.Route(d.Tenant, g.Name, u.Value)
			weight := u.Weight
			perShard[si] = append(perShard[si], mergerUpdate{Stream: g.Name, Value: u.Value, Weight: &weight})
			total++
		}
	}
	// The frame's (clientID, seq) becomes the per-shard idempotency
	// identity, so shard dedupe windows carry the exactly-once promise
	// across merger restarts and frame replays.
	tenant, seq := d.Tenant, d.Seq
	baseKey := fmt.Sprintf("%s:%d", d.ClientID, seq)
	release() // perShard holds copies; d is not needed past this point
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	out := m.fanOutUpdate(ctx, tenant, perShard, baseKey)
	cancel()
	switch {
	case out.err == nil:
		return wire.Reply{Type: wire.FrameAck, Seq: seq, Applied: total, Duplicate: out.allDup}
	case out.kind == fanPermanent:
		return wire.Reply{Type: wire.FrameError, Seq: seq, Msg: out.err.Error()}
	default:
		// Saturated or unreachable shard: retryable. The hint is the
		// largest shard Retry-After, floored at the merger's own.
		return wire.Reply{Type: wire.FrameReject, Seq: seq, RetryAfter: uint32(httpapi.RetryAfter(out.retryAfter))}
	}
}
