// Package loadtest is the exact-reconciliation driver behind
// cmd/loadgen: an open-loop generator that drives a live sketchd over
// JSON HTTP or SKSP with a token-bucket rate model, bounded queue depth
// and concurrent ingest workers honoring the server's 429/Retry-After
// backpressure contract, then reconciles every acknowledged update
// against the server's own /stats counters, in total and per tenant.
// The result is a BENCH_ingest.json report (docs/FORMATS.md). Client is
// also the HTTP client perfbench drives sketchd with; speed and latency
// are perfbench's to measure, not this package's.
package loadtest

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"skimsketch/internal/distributed"
	"skimsketch/internal/stats"
)

// Update is one wire update; Weight is a pointer for the same reason
// sketchd's decoder uses one (an explicit 0 must survive the trip).
type Update struct {
	Stream string `json:"stream"`
	Value  uint64 `json:"value"`
	Weight *int64 `json:"weight,omitempty"`
}

// Client is a sketchd HTTP client for the harness: JSON helpers for
// setup, and a batch-update path with the 429/Retry-After backoff
// contract built in. Client is goroutine-safe; per-worker measurement
// state lives in the workers, not here.
type Client struct {
	// BaseURL is the sketchd root, e.g. http://127.0.0.1:8080.
	BaseURL string
	// Tenant scopes every request to one tenant namespace via the
	// /t/{tenant}/ path prefix; empty uses the flat (default-tenant) API,
	// byte-identical to the pre-tenant client.
	Tenant string
	// HTTP is the underlying client; nil uses the package's default
	// client, which — unlike http.DefaultClient — carries connect and
	// whole-request timeouts so a hung sketchd fails the request instead
	// of wedging the harness forever.
	HTTP *http.Client
	// Backoff paces 429 retries. The zero value is the distributed
	// package's default jittered-exponential policy; the Retry-After
	// hint from the server acts as a floor on every delay.
	Backoff distributed.Backoff
	// Idem, when non-nil, stamps every /update batch with an
	// Idempotency-Key header so a retry after a lost response (connection
	// reset mid-reply, proxy timeout) is answered from the server's
	// dedupe window instead of applying the batch twice. A pointer so
	// ForTenant's value copies share one sequence.
	Idem *IdemSource
}

// IdemSource mints Idempotency-Key values ("clientID:seq") for /update
// batches. One source per logical client process; safe for concurrent
// use from many workers and shared across ForTenant copies.
type IdemSource struct {
	clientID string
	seq      atomic.Uint64
}

// NewIdemSource returns a key source. An empty clientID gets a random
// one, unique per process incarnation — a restarted harness must not
// collide with its predecessor's live window entries.
func NewIdemSource(clientID string) *IdemSource {
	if clientID == "" {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			panic("loadtest: crypto/rand unavailable: " + err.Error())
		}
		clientID = "loadgen-" + hex.EncodeToString(b[:])
	}
	return &IdemSource{clientID: clientID}
}

// Next mints the key for one logical batch. Callers compute it once
// before the retry loop and reuse it on every attempt — that identity
// across attempts is the whole point.
func (s *IdemSource) Next() string {
	return s.clientID + ":" + strconv.FormatUint(s.seq.Add(1), 10)
}

// defaultRequestTimeout bounds one whole HTTP exchange (dial through
// body read) on the default client. It is comfortably above the slowest
// expected /answer and the 30s Retry-After cap does not pass through it
// (the retry loop sleeps BETWEEN requests, outside this budget).
const defaultRequestTimeout = 60 * time.Second

// newDefaultHTTPClient builds the harness's default transport: explicit
// connect, header and whole-request deadlines. The old fallback was
// http.DefaultClient, which has NO timeout of any kind — one sketchd
// that accepted a connection and then hung (wedged worker, stopped
// process under SIGSTOP, dead NAT entry) blocked a harness worker
// forever and with it the whole run's shutdown join.
func newDefaultHTTPClient(requestTimeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			ResponseHeaderTimeout: requestTimeout,
			MaxIdleConnsPerHost:   64,
			IdleConnTimeout:       90 * time.Second,
		},
	}
}

// defaultHTTPClient is shared by every Client with a nil HTTP field so
// connection pools are reused across tenant-scoped copies.
var defaultHTTPClient = newDefaultHTTPClient(defaultRequestTimeout)

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// ForTenant returns a copy of the client scoped to one tenant (sharing
// the transport and backoff policy).
func (c *Client) ForTenant(tenant string) *Client {
	cc := *c
	cc.Tenant = tenant
	return &cc
}

// url resolves an API path against the base URL and the tenant scope.
func (c *Client) url(path string) string {
	if c.Tenant != "" {
		return c.BaseURL + "/t/" + c.Tenant + path
	}
	return c.BaseURL + path
}

// postJSON POSTs v to path and decodes the JSON response into out (when
// non-nil). Non-2xx statuses become errors carrying the body.
func (c *Client) postJSON(ctx context.Context, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("loadtest: POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// getJSON GETs path and decodes the JSON response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("loadtest: GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// DeclareStream declares a stream (idempotence is the caller's concern;
// sketchd rejects redeclaration).
func (c *Client) DeclareStream(ctx context.Context, name string, domain uint64) error {
	return c.postJSON(ctx, "/streams", map[string]any{"name": name, "domain": domain}, nil)
}

// RegisterCountQuery registers a COUNT join query between two streams.
func (c *Client) RegisterCountQuery(ctx context.Context, name, left, right string) error {
	return c.postJSON(ctx, "/queries", map[string]any{
		"name": name, "agg": "COUNT",
		"left":  map[string]any{"stream": left},
		"right": map[string]any{"stream": right},
	}, nil)
}

// Flush drains the server's ingest pipeline.
func (c *Client) Flush(ctx context.Context) error {
	return c.postJSON(ctx, "/flush", map[string]any{}, nil)
}

// WaitReady polls /healthz until it reports ready or ctx expires — the
// boot barrier before a measured run.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		var status struct {
			Status string `json:"status"`
		}
		err := c.getJSON(ctx, "/healthz", &status)
		if err == nil && status.Status == "ready" {
			return nil
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = fmt.Errorf("status %q", status.Status)
			}
			return fmt.Errorf("loadtest: server not ready: %w (last: %w)", ctx.Err(), err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// SendOutcome is the accounting for one SendUpdates call: how many
// request attempts it took, how many were shed with 429, and what the
// final acknowledgement applied.
type SendOutcome struct {
	// Attempts is the number of HTTP requests made (1 + retries).
	Attempts int64
	// Rejected429 is the number of attempts answered with 429; each such
	// attempt applied nothing server-side (the server sheds before
	// parsing), so retrying cannot double-count.
	Rejected429 int64
	// Applied is the update count the final 2xx response acknowledged.
	Applied int64
	// Deduplicated reports that the final 2xx was answered from the
	// server's idempotency window: an earlier attempt had already applied
	// the batch and its response was lost in transit.
	Deduplicated bool
}

// SendUpdates POSTs one batch to /update, retrying 429 responses under
// the client's Backoff with the server's Retry-After hint as a floor on
// each delay. Every attempt's latency (monotonic clock, request sent to
// response read) is recorded into hist when non-nil. The server's 429
// path rejects before anything is applied, so the retry loop neither
// loses updates (it keeps trying until acceptance, its attempt budget,
// or ctx) nor double-counts them (only the final 2xx applies).
func (c *Client) SendUpdates(ctx context.Context, batch []Update, hist *stats.Histogram) (SendOutcome, error) {
	var out SendOutcome
	body, err := json.Marshal(batch)
	if err != nil {
		return out, err
	}
	// The key is minted once per logical batch, BEFORE the retry loop:
	// every attempt carries the same identity, so the server can tell a
	// replay (response lost) from a new batch.
	var idemKey string
	if c.Idem != nil {
		idemKey = c.Idem.Next()
	}
	attempt := func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/update"), bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		t0 := time.Now()
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return err
		}
		data, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if hist != nil {
			hist.Record(int64(time.Since(t0)))
		}
		out.Attempts++
		if resp.StatusCode == http.StatusTooManyRequests {
			out.Rejected429++
			return &distributed.RetryAfterError{
				After: distributed.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
				Err:   errors.New("server backpressure (429)"),
			}
		}
		if resp.StatusCode/100 != 2 {
			return distributed.Permanent(fmt.Errorf("loadtest: /update: %s: %s", resp.Status, bytes.TrimSpace(data)))
		}
		if readErr != nil {
			return distributed.Permanent(readErr)
		}
		var ack struct {
			Applied      int64 `json:"applied"`
			Deduplicated bool  `json:"deduplicated"`
		}
		if err := json.Unmarshal(data, &ack); err != nil {
			return distributed.Permanent(err)
		}
		out.Applied = ack.Applied
		out.Deduplicated = ack.Deduplicated
		return nil
	}
	err = c.Backoff.Retry(ctx, attempt)
	return out, err
}

// ServerStats is the subset of GET /stats the harness reconciles
// against: the engine's exact ingest counters.
type ServerStats struct {
	Ingest struct {
		UpdatesEnqueued int64 `json:"updatesEnqueued"`
		UpdatesApplied  int64 `json:"updatesApplied"`
		Rejected        int64 `json:"rejected"`
	} `json:"ingest"`
}

// Stats fetches the reconciliation subset of /stats.
func (c *Client) Stats(ctx context.Context) (*ServerStats, error) {
	var st ServerStats
	if err := c.getJSON(ctx, "/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// TenantServerStats is the reconciliation subset of a tenant-scoped
// GET /t/{tenant}/stats: the tenant's exact per-stream enqueue counters
// plus its quota gauges.
type TenantServerStats struct {
	UpdateCounts   map[string]int64 `json:"updateCounts"`
	PendingUpdates int64            `json:"pendingUpdates"`
	Rejected       int64            `json:"rejected"`
}

// TotalUpdates sums the tenant's per-stream update counters.
func (s *TenantServerStats) TotalUpdates() int64 {
	var n int64
	for _, c := range s.UpdateCounts {
		n += c
	}
	return n
}

// TenantStats fetches the reconciliation subset of the scoped tenant's
// /stats (callers use a ForTenant client).
func (c *Client) TenantStats(ctx context.Context) (*TenantServerStats, error) {
	var st TenantServerStats
	if err := c.getJSON(ctx, "/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Answer runs one /answer request, recording its latency into hist.
func (c *Client) Answer(ctx context.Context, query string, hist *stats.Histogram) error {
	t0 := time.Now()
	err := c.getJSON(ctx, "/answer?query="+query, nil)
	if hist != nil {
		hist.Record(int64(time.Since(t0)))
	}
	return err
}
