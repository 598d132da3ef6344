package faults

import (
	"math/rand"
	"testing"
	"time"
)

func TestBackoffWindowDoubles(t *testing.T) {
	b := NewBackoff(rand.New(rand.NewSource(1)), 2*time.Microsecond, 16*time.Microsecond)
	wantCeils := []time.Duration{
		2 * time.Microsecond, 4 * time.Microsecond, 8 * time.Microsecond,
		16 * time.Microsecond, 16 * time.Microsecond, 16 * time.Microsecond,
	}
	for i, want := range wantCeils {
		ceil := b.ceil
		if ceil != want {
			t.Fatalf("attempt %d: ceil = %v, want %v", i, ceil, want)
		}
		d := b.Next()
		if d < 0 || d > ceil {
			t.Fatalf("attempt %d: draw %v outside [0, %v]", i, d, ceil)
		}
	}
	b.Reset()
	if b.ceil != 2*time.Microsecond {
		t.Fatalf("after Reset, ceil = %v, want base", b.ceil)
	}
}

func TestBackoffClampsDegenerateConfig(t *testing.T) {
	b := NewBackoff(rand.New(rand.NewSource(1)), 0, 0)
	if b.Base <= 0 || b.Max < b.Base {
		t.Fatalf("degenerate config not clamped: base=%v max=%v", b.Base, b.Max)
	}
	for i := 0; i < 10; i++ {
		if d := b.Next(); d < 0 || d > b.Max {
			t.Fatalf("draw %v outside [0, %v]", d, b.Max)
		}
	}
}

// Collision-rate fixture shared by the decorrelation tests: simulate
// groups of sessions that all fail at t=0 and retry per a schedule
// generator, then measure how often a pair of sessions lands its k-th
// retry within one base period of each other — close enough to hit the
// contended resource in the same window. The first attempts are skipped:
// with windows at most one base wide, early collisions are unavoidable
// under ANY schedule; decorrelation is about the later attempts, where
// the windows have room to spread.
func backoffCollisionFrac(t *testing.T, gen func(rng *rand.Rand, base, max time.Duration, attempts int) []time.Duration) float64 {
	t.Helper()
	const (
		sessions = 8
		attempts = 6
		skip     = 2
		trials   = 200
	)
	base, max := 2*time.Microsecond, 64*time.Microsecond
	collisions, pairs := 0, 0
	seed := int64(1)
	for trial := 0; trial < trials; trial++ {
		wakeups := make([][]time.Duration, sessions)
		for s := range wakeups {
			// Each session draws from its own seeded stream, as two
			// agents (or two ctlchan clients) would.
			wakeups[s] = gen(rand.New(rand.NewSource(seed)), base, max, attempts)
			seed++
		}
		for i := 0; i < sessions; i++ {
			for j := i + 1; j < sessions; j++ {
				for k := skip; k < attempts; k++ {
					pairs++
					d := wakeups[i][k] - wakeups[j][k]
					if d < 0 {
						d = -d
					}
					if d < base {
						collisions++
					}
				}
			}
		}
	}
	return float64(collisions) / float64(pairs)
}

// fullJitterSchedule is the production schedule: cumulative Backoff.Next
// retry instants.
func fullJitterSchedule(rng *rand.Rand, base, max time.Duration, attempts int) []time.Duration {
	b := NewBackoff(rng, base, max)
	var at time.Duration
	out := make([]time.Duration, 0, attempts)
	for i := 0; i < attempts; i++ {
		at += b.Next()
		out = append(out, at)
	}
	return out
}

// synchronizedSchedule is the pre-change scheme this package replaced:
// deterministic doubling plus a small jitter in [0, backoff/2]. Kept as
// the baseline the decorrelation claim is measured against.
func synchronizedSchedule(rng *rand.Rand, base, max time.Duration, attempts int) []time.Duration {
	backoff := base
	var at time.Duration
	out := make([]time.Duration, 0, attempts)
	for i := 0; i < attempts; i++ {
		at += backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		if backoff *= 2; backoff > max {
			backoff = max
		}
		out = append(out, at)
	}
	return out
}

// TestBackoffDecorrelatesSessions is the retransmit-storm regression:
// sessions that trip over the same fault at the same instant must not
// keep re-arriving in lockstep. Full jitter spreads attempt k over
// [0, sum of windows]; the old synchronized scheme confined it to a
// narrow band around the deterministic doubling sum, so every pair of
// sessions re-collided. Measured rates (seeded, deterministic): ~0.19
// for full jitter vs ~0.35 for synchronized.
func TestBackoffDecorrelatesSessions(t *testing.T) {
	full := backoffCollisionFrac(t, fullJitterSchedule)
	sync := backoffCollisionFrac(t, synchronizedSchedule)
	if full >= sync {
		t.Fatalf("full jitter does not decorrelate: collision rate %.3f >= synchronized %.3f", full, sync)
	}
	if full > 0.25 {
		t.Fatalf("full-jitter collision rate %.3f above expected ceiling 0.25", full)
	}
	// Guard the baseline too: if the synchronized reference stops
	// colliding, the comparison above stops meaning anything.
	if sync < 0.30 {
		t.Fatalf("synchronized baseline collision rate %.3f unexpectedly low — revisit the metric", sync)
	}
}
