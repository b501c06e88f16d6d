package distributed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Backoff is the jittered-exponential retry policy every cross-node
// call shares: the merger pulling shard sketches, the load harness
// resending a 429ed /update, and the SKSP client resending a REJECTed
// frame. Each retried call must be idempotent — a pulled sketch is
// absolute state, and a resent batch carries the same dedupe identity.
//
// The zero value is usable: 100ms base delay, doubling, capped at 5s,
// half of every delay jittered, retrying until the context is done.
type Backoff struct {
	// Base is the delay before the first retry. <= 0 defaults to 100ms.
	Base time.Duration
	// Max caps the (pre-jitter) delay. <= 0 defaults to 5s.
	Max time.Duration
	// Factor multiplies the delay after each failure. < 1 defaults to 2.
	Factor float64
	// Jitter is the fraction of each delay that is randomized: the
	// actual sleep is delay·(1-Jitter) + delay·Jitter·U[0,1). Outside
	// [0,1] it defaults to 0.5. Jitter decorrelates retry storms from
	// many sites hitting one merger.
	Jitter float64
	// Attempts bounds the total number of tries. <= 0 means unbounded —
	// retry until the context is canceled.
	Attempts int
	// Rand supplies the jitter randomness; nil uses the (thread-safe)
	// global math/rand source. Tests inject a seeded source. A non-nil
	// *rand.Rand is not goroutine-safe, so share one Backoff across
	// goroutines only when Rand is nil.
	Rand *rand.Rand
}

func (b Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 100 * time.Millisecond
	}
	return b.Base
}

func (b Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 5 * time.Second
	}
	return b.Max
}

func (b Backoff) factor() float64 {
	if b.Factor < 1 {
		return 2
	}
	return b.Factor
}

func (b Backoff) jitter() float64 {
	if b.Jitter < 0 || b.Jitter > 1 {
		return 0.5
	}
	return b.Jitter
}

func (b Backoff) float64() float64 {
	if b.Rand != nil {
		return b.Rand.Float64()
	}
	return rand.Float64()
}

// Delay returns the sleep before retry number attempt (0-based): the
// exponentially grown, capped, jittered delay. Exposed so tests can pin
// the bounds.
func (b Backoff) Delay(attempt int) time.Duration {
	d := float64(b.base())
	f := b.factor()
	for i := 0; i < attempt; i++ {
		d *= f
		if d >= float64(b.max()) {
			break
		}
	}
	if m := float64(b.max()); d > m {
		d = m
	}
	j := b.jitter()
	d = d*(1-j) + d*j*b.float64()
	return time.Duration(d)
}

// MaxRetryAfter caps how long a server's Retry-After hint can stall a
// retry loop: a misconfigured (or adversarial) hint of an hour must not
// wedge a shipper whose own backoff tops out in seconds.
const MaxRetryAfter = 30 * time.Second

// RetryAfterError marks a retryable failure that carries the server's
// Retry-After hint (a 429 or 503 with the header). Backoff.Retry floors
// its next delay by the hint, so a crowd of sites told "retry after 2s"
// waits at least that long — while the exponential growth and jitter
// still apply on top, decorrelating the retry storm. Wrap the underlying
// failure in Err; errors.Is/As see through it.
type RetryAfterError struct {
	// After is the server's requested pause before the next attempt.
	After time.Duration
	// Err is the underlying failure, if any.
	Err error
}

func (e *RetryAfterError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("retryable after %v: %v", e.After, e.Err)
	}
	return fmt.Sprintf("retryable after %v", e.After)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// ParseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds ("120") or an HTTP-date ("Fri, 08 Aug 2026 17:00:00
// GMT", evaluated against now). Unparseable, missing, or already-past
// hints yield 0 (pure Backoff pacing); the result is capped at
// MaxRetryAfter. Senders that only understood delay-seconds silently
// turned a date hint into an immediate hammer-retry, which is exactly
// backwards under overload.
func ParseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if when, err := http.ParseTime(v); err == nil {
		d = when.Sub(now)
	} else {
		return 0
	}
	if d < 0 {
		return 0
	}
	if d > MaxRetryAfter {
		d = MaxRetryAfter
	}
	return d
}

// permanentError marks a failure retrying cannot fix; see Permanent.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as a failure that retrying cannot fix (a 4xx
// validation error, an SKSP ERROR frame, a closed connection): Retry
// stops at once and returns err itself, unwrapped. The mark survives
// the caller's own wrapping. Permanent(nil) is nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// delayAfter computes the sleep before the next try given the failure of
// retry number attempt (0-based): the policy's jittered-exponential
// delay, floored by the failure's Retry-After hint (capped at
// MaxRetryAfter) when it carries one.
func (b Backoff) delayAfter(attempt int, last error) time.Duration {
	d := b.Delay(attempt)
	var ra *RetryAfterError
	if errors.As(last, &ra) {
		hint := ra.After
		if hint > MaxRetryAfter {
			hint = MaxRetryAfter
		}
		if hint > d {
			d = hint
		}
	}
	return d
}

// Retry runs f until it succeeds, fails permanently, the attempt budget
// is spent, or ctx is done, sleeping the policy's jittered-exponential
// delay between tries. f receives ctx and should abort promptly when it
// is canceled. A failure wrapping RetryAfterError floors the next delay
// by the server's hint; a failure marked with Permanent ends the loop
// and is returned unwrapped. The returned error is nil on success; on a
// canceled context it wraps both the context error and f's last error
// (either matches errors.Is).
func (b Backoff) Retry(ctx context.Context, f func(context.Context) error) error {
	if f == nil {
		return errors.New("distributed: Retry requires a function")
	}
	var last error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return retryErr(attempt, err, last)
		}
		if last = f(ctx); last == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(last, &perm) {
			return perm.err
		}
		if b.Attempts > 0 && attempt+1 >= b.Attempts {
			return fmt.Errorf("distributed: retry budget spent after %d attempts: %w", attempt+1, last)
		}
		t := time.NewTimer(b.delayAfter(attempt, last))
		select {
		case <-ctx.Done():
			t.Stop()
			return retryErr(attempt+1, ctx.Err(), last)
		case <-t.C:
		}
	}
}

// retryErr reports a context-terminated retry, preserving the last
// attempt error (if any) for errors.Is/As.
func retryErr(attempts int, ctxErr, last error) error {
	if last == nil {
		return fmt.Errorf("distributed: retry canceled before first attempt: %w", ctxErr)
	}
	return fmt.Errorf("distributed: retry canceled after %d attempts: %w (last error: %w)", attempts, ctxErr, last)
}
