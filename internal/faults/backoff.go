package faults

import (
	"math/rand"
	"time"
)

// Backoff computes full-jitter exponential retry delays: attempt k
// sleeps a uniform random duration in [0, min(Max, Base<<k)). Compared
// to the classic "backoff ± small jitter" scheme, full jitter spreads
// concurrent retriers across the whole window, so sessions that all
// tripped over the same channel fault (a shared stuck window, a
// partition heal) do not re-arrive in lockstep and re-collide — the
// retransmit-storm failure mode of synchronized backoff.
//
// The delays are drawn from the caller-supplied RNG, so a seeded source
// makes every schedule reproducible, and two sessions with independent
// streams decorrelate (see TestBackoffDecorrelatesSessions).
type Backoff struct {
	// Base is the first attempt's window ceiling; it doubles per attempt.
	Base time.Duration
	// Max caps the window ceiling.
	Max time.Duration

	rng  *rand.Rand
	ceil time.Duration
}

// NewBackoff returns a full-jitter backoff drawing from rng. Base and
// max are clamped to at least 1ns so Next always makes progress.
func NewBackoff(rng *rand.Rand, base, max time.Duration) *Backoff {
	if base <= 0 {
		base = time.Nanosecond
	}
	if max < base {
		max = base
	}
	return &Backoff{Base: base, Max: max, rng: rng, ceil: base}
}

// Next returns the delay before the next retry and widens the window.
// The draw is uniform in [0, ceil]; a zero draw is valid (retry
// immediately) — at-most-once protection belongs to the layer below,
// not to the pacing of retries.
func (b *Backoff) Next() time.Duration {
	d := time.Duration(b.rng.Int63n(int64(b.ceil) + 1))
	if b.ceil *= 2; b.ceil > b.Max {
		b.ceil = b.Max
	}
	return d
}

// Reset shrinks the window back to Base, for callers that reuse one
// Backoff across independent operations.
func (b *Backoff) Reset() { b.ceil = b.Base }
