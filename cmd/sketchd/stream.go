package main

import (
	"errors"
	"net"

	"skimsketch/internal/engine"
	"skimsketch/internal/httpapi"
	"skimsketch/internal/wire"
)

// newStreamServer builds the SKSP binary ingest listener
// (-listen.stream): the shared wire.Server skeleton with a handler that
// feeds every DATA frame to the engine's multi-group ingest path. It
// exists because JSON-over-HTTP pays for itself many times over per
// update (request parsing, JSON decoding, per-request allocation); SKSP
// amortizes all of it across a connection and recycles every decode
// buffer, so steady-state ingest allocates almost nothing per frame.
//
// Reliability contract (the frame-level mirror of /update's):
//
//   - ACK means the frame was admitted to the ingest queues — exactly
//     what HTTP 200 means. The element count rides back for client-side
//     reconciliation.
//   - REJECT means NOTHING was applied (global saturation or tenant
//     quota): resend the same seq after the Retry-After hint.
//   - ERROR is permanent (unknown stream, value out of domain, bad
//     tenant name): resending the same frame can never succeed.
//   - A (clientID, seq) already admitted is answered from the shared
//     dedupe window with a duplicate ACK and applied nothing, which is
//     what makes reconnect-with-replay exactly-once. The window is
//     in-memory and bounded: replays must be prompt (a process restart
//     or a very deep backlog forgets old seqs).
func newStreamServer(eng *engine.Engine, dedupe *wire.Window, ln net.Listener) *wire.Server {
	return wire.NewServer(ln, func(d *wire.Data, release func()) wire.Reply {
		// Everything the reply needs is copied out now: on successful
		// admission the engine owns d until release fires, and the pool
		// may hand d to another connection immediately after.
		clientID, seq, tenant := d.ClientID, d.Seq, d.Tenant
		var total int64
		for i := range d.Groups {
			total += int64(len(d.Groups[i].Updates))
		}

		if out, ok := dedupe.Lookup(clientID, seq); ok {
			// Replay of an admitted frame: the first ACK was lost in a
			// disconnect. Answer from memory, apply nothing.
			release()
			return wire.Reply{Type: wire.FrameAck, Seq: seq, Applied: out.Applied, Duplicate: true}
		}
		if tenant != "" {
			if err := engine.ValidTenantName(tenant); err != nil {
				release()
				return wire.Reply{Type: wire.FrameError, Seq: seq, Msg: err.Error()}
			}
		} else {
			tenant = engine.DefaultTenant
		}
		reject := wire.Reply{Type: wire.FrameReject, Seq: seq, RetryAfter: httpapi.RetryAfterSeconds}
		if eng.IngestSaturated() {
			eng.NoteRejected(1)
			release()
			return reject
		}
		// Atomic admission, same contract as /update: every group
		// validated and the quota checked against the whole frame before
		// anything is applied. On success the engine fires release once
		// the last shard worker is done with d.
		err := eng.Tenant(tenant).IngestGroups(d.Groups, release)
		switch {
		case err == nil:
			dedupe.Record(clientID, seq, wire.Outcome{Applied: total})
			return wire.Reply{Type: wire.FrameAck, Seq: seq, Applied: total}
		case errors.Is(err, engine.ErrQuotaExceeded):
			// Retryable: nothing was admitted, and the deliberately
			// unrecorded seq stays replayable.
			release()
			return reject
		default:
			// Unknown stream / out-of-domain value: permanent.
			release()
			return wire.Reply{Type: wire.FrameError, Seq: seq, Msg: err.Error()}
		}
	})
}
