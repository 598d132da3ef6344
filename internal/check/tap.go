package check

import (
	"time"

	"repro/internal/driver"
	"repro/internal/sim"
)

// Tap is a driver.Channel over another one. It numbers every op that
// reaches it, from 0, and lets a test act on the stream: fail an op,
// park its caller, replace its result or record it. Check attaches the
// §5 snapshot rules to it. A tap takes no virtual time of its own.
type Tap struct {
	driver.Adapter
	below driver.Channel

	// Before, if set, sees op number n before it goes down. A non-nil
	// error fails the op with that error instead; Before may also park
	// p for good, as a crash does.
	Before func(p *sim.Proc, n int, op *driver.Op) error
	// After, if set, sees op number n once the channel below returned
	// err, and returns the error the caller gets: err, or another one,
	// such as the lost acknowledgment of a write that landed.
	After func(p *sim.Proc, n int, op *driver.Op, err error) error

	// ExtraFaults is added to the fault count Faults reports: a fault
	// counted by hand, as a retransmit below would be.
	ExtraFaults uint64

	ops   int
	rules *Rules
}

// NewTap returns a tap over below with no hooks.
func NewTap(below driver.Channel) *Tap {
	t := &Tap{below: below}
	t.Adapter = driver.NewAdapter(t.do, below)
	return t
}

func (t *Tap) do(p *sim.Proc, op *driver.Op) error {
	n := t.ops
	t.ops++
	if t.rules != nil {
		t.rules.check(n, op)
	}
	if t.Before != nil {
		if err := t.Before(p, n, op); err != nil {
			return err
		}
	}
	err := driver.Apply(t.below, p, op)
	if t.After != nil {
		err = t.After(p, n, op, err)
	}
	return err
}

// RTT is the channel below's, or 0 if it has none, so an agent over a
// tap derives the recovery budgets it would derive without it.
func (t *Tap) RTT() time.Duration {
	if c, ok := t.below.(interface{ RTT() time.Duration }); ok {
		return c.RTT()
	}
	return 0
}

// Faults is the channel below's fault count, if it keeps one, plus
// ExtraFaults, so channel_clean() answers as it would without the tap.
func (t *Tap) Faults() uint64 {
	n := t.ExtraFaults
	if c, ok := t.below.(interface{ Faults() uint64 }); ok {
		n += c.Faults()
	}
	return n
}
