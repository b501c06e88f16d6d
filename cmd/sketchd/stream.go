package main

import (
	"errors"
	"net"

	"skimsketch/internal/engine"
	"skimsketch/internal/httpapi"
	"skimsketch/internal/wire"
)

// errSaturated is the refusal a full ingest pipeline answers with.
var errSaturated = errors.New("ingest queues full; retry after backoff")

// newStreamServer builds the SKSP binary ingest listener
// (-listen.stream): the shared wire.Server skeleton with admit as its
// frame handler. It exists because JSON-over-HTTP pays for itself many
// times over per update (request parsing, JSON decoding, per-request
// allocation); SKSP amortizes all of it across a connection and
// recycles every decode buffer, so steady-state ingest allocates almost
// nothing per frame.
func newStreamServer(s *server, ln net.Listener) *wire.Server {
	return wire.NewServer(ln, func(d *wire.Data, release func()) wire.Reply {
		reply, _ := s.admit(d, release)
		return reply
	})
}

// admit is the one ingest admission path: every SKSP DATA frame, and
// every HTTP /update once decoded into one, ends here. The reply is the
// frame-level answer; the error, set on REJECT and ERROR, is what HTTP
// renders.
//
//   - ACK means the request was admitted to the ingest queues. The
//     element count rides back for client-side reconciliation.
//   - REJECT means NOTHING was applied (global saturation or tenant
//     quota): resend the same seq after the Retry-After hint.
//   - ERROR is permanent (unknown stream, value out of domain, bad
//     tenant name): resending the same request can never succeed.
//   - A keyed (clientID, seq) already admitted is answered from the
//     shared dedupe window with a duplicate ACK and applied nothing,
//     which is what makes reconnect-with-replay exactly-once. The window
//     is in-memory and bounded: replays must be prompt (a process
//     restart or a very deep backlog forgets old seqs).
//
// release follows the engine's IngestGroups contract; nil means the
// caller keeps the buffers.
func (s *server) admit(d *wire.Data, release func()) (wire.Reply, error) {
	// Everything the reply needs is copied out now: on successful
	// admission the engine owns d until release fires, and the pool may
	// hand d to another connection immediately after.
	clientID, seq, tenant := d.ClientID, d.Seq, d.Tenant
	var total int64
	for i := range d.Groups {
		total += int64(len(d.Groups[i].Updates))
	}
	notAdmitted := func(reply wire.Reply, err error) (wire.Reply, error) {
		if release != nil {
			release()
		}
		return reply, err
	}
	if clientID != "" {
		if out, ok := s.dedupe.Lookup(clientID, seq); ok {
			// Replay of an admitted request whose answer was lost: answer
			// from memory, apply nothing — before the saturation check,
			// because re-applying nothing is always admissible.
			return notAdmitted(wire.Reply{Type: wire.FrameAck, Seq: seq, Applied: out.Applied, Duplicate: true}, nil)
		}
	}
	if tenant == "" {
		tenant = engine.DefaultTenant
	} else if err := engine.ValidTenantName(tenant); err != nil {
		return notAdmitted(wire.Reply{Type: wire.FrameError, Seq: seq, Msg: err.Error()}, err)
	}
	reject := wire.Reply{Type: wire.FrameReject, Seq: seq, RetryAfter: httpapi.RetryAfterSeconds}
	// Backpressure: shed load instead of blocking the caller (and
	// eventually every connection) on a queue that may stay full.
	if s.eng.IngestSaturated() {
		s.eng.NoteRejected(1)
		return notAdmitted(reject, errSaturated)
	}
	// Atomic admission: every group validated and the quota checked
	// against the whole request before anything is applied. On success
	// the engine fires release once the last shard worker is done with d.
	err := s.eng.Tenant(tenant).IngestGroups(d.Groups, release)
	switch {
	case err == nil:
		if clientID != "" {
			s.dedupe.Record(clientID, seq, wire.Outcome{Applied: total})
		}
		return wire.Reply{Type: wire.FrameAck, Seq: seq, Applied: total}, nil
	case errors.Is(err, engine.ErrQuotaExceeded):
		// Retryable: nothing was admitted, and the deliberately
		// unrecorded seq stays replayable.
		return notAdmitted(reject, err)
	default:
		return notAdmitted(wire.Reply{Type: wire.FrameError, Seq: seq, Msg: err.Error()}, err)
	}
}
