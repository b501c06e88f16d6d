package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// MaxBodyBytes caps every body either tier reads whole: a request body,
// and a shard's SKSL payload at the merger. The largest sensible payload
// (two 64×(1<<18) sketches) is well under this; a body exceeding it is a
// broken or hostile peer, not a big request.
const MaxBodyBytes = 1 << 28

var errBody = errors.New("unreadable or oversized request body")

// ReadBody reads a request body whole, refusing one over MaxBodyBytes —
// without reading it when the declared Content-Length already says so.
func ReadBody(r *http.Request) ([]byte, error) {
	if r.ContentLength > MaxBodyBytes {
		return nil, errBody
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil || len(body) > MaxBodyBytes {
		return nil, errBody
	}
	return body, nil
}

// update is one element of an HTTP /update body.
type update struct {
	Tenant string `json:"tenant,omitempty"`
	Stream string `json:"stream"`
	Value  uint64 `json:"value"`
	// Weight is a pointer so an omitted weight (nil → default 1, a bare
	// insert) is distinguishable from an explicit 0 (a no-op update the
	// caller really asked for, e.g. generated pipelines).
	Weight *int64 `json:"weight"`
}

// DecodeUpdates turns an HTTP /update request into the SKSP DATA frame
// it stands for, so each tier admits JSON through its frame handler and
// the two transports cannot drift apart. urlTenant is the tenant the URL
// named ("" for none).
//
// The body is a single update object or an array of them. An omitted
// weight means 1. Per-object tenants must agree with each other and with
// urlTenant; the result's Tenant is whichever was named ("" for the
// default tenant). Updates are grouped by stream in order of first
// appearance, keeping per-stream order. An "Idempotency-Key: clientID:seq"
// header becomes ClientID and Seq; without one ClientID is "", which no
// SKSP frame can carry, so keyed and keyless requests never collide.
func DecodeUpdates(r *http.Request, urlTenant string) (*wire.Data, error) {
	d := &wire.Data{Tenant: urlTenant}
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		var err error
		if d.ClientID, d.Seq, err = parseIdempotencyKey(key); err != nil {
			return nil, err
		}
	}
	body, err := ReadBody(r)
	if err != nil {
		return nil, err
	}
	var batch []update
	if err := json.Unmarshal(body, &batch); err != nil {
		var one update
		if err := json.Unmarshal(body, &one); err != nil {
			return nil, errors.New("expected a JSON update object or array of them")
		}
		batch = []update{one}
	}
	// One request updates one tenant, so a batch can never be
	// half-applied across namespaces.
	bodyTenant := ""
	for _, u := range batch {
		if u.Tenant == "" {
			continue
		}
		if bodyTenant != "" && u.Tenant != bodyTenant {
			return nil, fmt.Errorf("batch mixes tenants %q and %q; one tenant per request", bodyTenant, u.Tenant)
		}
		bodyTenant = u.Tenant
	}
	if bodyTenant != "" && urlTenant != "" && bodyTenant != urlTenant {
		return nil, fmt.Errorf("conflicting tenants %q (url) and %q (body)", urlTenant, bodyTenant)
	}
	if d.Tenant == "" {
		d.Tenant = bodyTenant
	}
	byStream := make(map[string]int)
	for _, u := range batch {
		weight := int64(1)
		if u.Weight != nil {
			weight = *u.Weight
		}
		i, ok := byStream[u.Stream]
		if !ok {
			i = len(d.Groups)
			byStream[u.Stream] = i
			d.Groups = append(d.Groups, stream.Group{Name: u.Stream})
		}
		d.Groups[i].Updates = append(d.Groups[i].Updates, stream.Update{Value: u.Value, Weight: weight})
	}
	return d, nil
}

// parseIdempotencyKey splits an Idempotency-Key of the form
// "clientID:seq" on its last colon. A client that may retry a batch
// (because the connection died after the server applied it but before
// the response arrived) sends the same key on every attempt; the server
// remembers applied keys in its dedupe window and answers replays
// without re-applying.
func parseIdempotencyKey(key string) (client string, seq uint64, err error) {
	i := strings.LastIndexByte(key, ':')
	if i <= 0 || i == len(key)-1 {
		return "", 0, fmt.Errorf("malformed Idempotency-Key %q: want clientID:seq", key)
	}
	seq, err = strconv.ParseUint(key[i+1:], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("malformed Idempotency-Key %q: seq: %w", key, err)
	}
	if len(key) > 2*wire.MaxNameLen {
		return "", 0, fmt.Errorf("Idempotency-Key longer than %d bytes", 2*wire.MaxNameLen)
	}
	return key[:i], seq, nil
}
