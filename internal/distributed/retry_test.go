package distributed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// fastBackoff keeps test retries in the microsecond range.
func fastBackoff(attempts int) Backoff {
	return Backoff{
		Base:     10 * time.Microsecond,
		Max:      100 * time.Microsecond,
		Attempts: attempts,
		Rand:     rand.New(rand.NewSource(1)),
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := fastBackoff(10).Retry(context.Background(), func(context.Context) error {
		calls++
		if calls < 4 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := fastBackoff(3).Retry(context.Background(), func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want exactly the attempt budget", calls)
	}
}

func TestRetryHonorsContextCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	// Unbounded attempts with a long delay: only cancellation can end it.
	b := Backoff{Base: time.Hour, Rand: rand.New(rand.NewSource(1))}
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		done <- b.Retry(ctx, func(context.Context) error {
			calls++
			close(started)
			return boom
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, must preserve the last attempt error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry did not return after cancel")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (canceled during the first backoff sleep)", calls)
	}
}

func TestRetryCanceledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := fastBackoff(5).Retry(ctx, func(context.Context) error {
		t.Error("function ran under a canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRetryNilFunction(t *testing.T) {
	if err := fastBackoff(1).Retry(context.Background(), nil); err == nil {
		t.Fatal("expected error for nil function")
	}
}

// TestDelayBounds pins the jittered-exponential envelope: every delay
// lies in [delay·(1-Jitter), delay) for the capped exponential delay,
// and delays never exceed Max.
func TestDelayBounds(t *testing.T) {
	b := Backoff{
		Base:   time.Millisecond,
		Max:    16 * time.Millisecond,
		Factor: 2,
		Jitter: 0.5,
		Rand:   rand.New(rand.NewSource(7)),
	}
	for attempt := 0; attempt < 12; attempt++ {
		raw := float64(time.Millisecond)
		for i := 0; i < attempt; i++ {
			raw *= 2
			if raw >= float64(b.Max) {
				break
			}
		}
		if raw > float64(b.Max) {
			raw = float64(b.Max)
		}
		for trial := 0; trial < 100; trial++ {
			d := float64(b.Delay(attempt))
			if d < raw*0.5 || d > raw {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]",
					attempt, time.Duration(d), time.Duration(raw*0.5), time.Duration(raw))
			}
		}
	}
}

func TestDelayDefaultsAreSane(t *testing.T) {
	var b Backoff // zero value
	if d := b.Delay(0); d <= 0 || d > 100*time.Millisecond {
		t.Fatalf("zero-value first delay = %v", d)
	}
	if d := b.Delay(30); d > 5*time.Second {
		t.Fatalf("zero-value delay exceeds the 5s cap: %v", d)
	}
}

// TestRetryPermanentStopsAtOnce: a failure marked Permanent ends the
// loop after one attempt, and the caller gets the error it marked, not
// the marker.
func TestRetryPermanentStopsAtOnce(t *testing.T) {
	boom := errors.New("unknown stream")
	calls := 0
	err := fastBackoff(10).Retry(context.Background(), func(context.Context) error {
		calls++
		return Permanent(boom)
	})
	if err != boom {
		t.Fatalf("err = %v (%T), want the unwrapped error", err, err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must be nil")
	}
}

// TestRetryPermanentSurvivesWrapping: a caller that adds context around
// a Permanent error must not turn it back into a retryable one.
func TestRetryPermanentSurvivesWrapping(t *testing.T) {
	boom := errors.New("400 bad request")
	calls := 0
	err := fastBackoff(10).Retry(context.Background(), func(context.Context) error {
		calls++
		return fmt.Errorf("send batch: %w", Permanent(boom))
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (wrapped permanent error was retried)", calls)
	}
}
