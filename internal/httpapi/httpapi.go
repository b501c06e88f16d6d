// Package httpapi holds the HTTP conventions that sketchd and the
// cluster merger share, so both tiers read and answer byte-for-byte
// alike: the /update body decoder, JSON bodies, {"error": ...} payloads,
// and the Retry-After hint that rides on every retryable refusal.
package httpapi

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// RetryAfterSeconds is the floor of every Retry-After hint, on HTTP
// 429/503 responses and SKSP REJECT frames alike: the ingest queues
// drain in well under a second unless a worker is wedged, so one second
// is a safe client backoff.
const RetryAfterSeconds = 1

// RetryAfter converts a hint to whole seconds, floored at
// RetryAfterSeconds.
func RetryAfter(after time.Duration) int {
	return max(int(after/time.Second), RetryAfterSeconds)
}

// WriteJSON renders v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteErr renders an error payload.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// WriteRetryable renders a retryable refusal (429 or 503) with its
// Retry-After hint — the pair travels together so well-behaved clients
// never fall back to blind backoff.
func WriteRetryable(w http.ResponseWriter, status int, after time.Duration, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfter(after)))
	WriteErr(w, status, err)
}
