// Package faults is a deterministic fault-injection layer for the
// switch driver channel.
//
// Real Tofino driver stacks fail in ways the calibrated cost model of
// internal/driver never does: RPCs time out under daemon load, PCIe
// transactions stall, batched DMA reads abort partway, and the whole
// channel can wedge for milliseconds while an unrelated component holds
// the device lock. The Mantis agent's robustness machinery (retries,
// rollback, watchdog, degradation — internal/core) exists to survive
// exactly these conditions, and this package exists to provoke them on
// demand.
//
// An Injector wraps any driver.Channel and presents the same method
// set (through driver.Adapter: every call reaches it as one Do(op)), so
// it drops between the agent and the driver without either noticing. Fault decisions are keyed off the simulation's virtual
// clock and the injector's own seeded RNG, so a given (profile, seed)
// pair reproduces the identical fault schedule on every run — a failing
// chaos test replays exactly.
//
// Injected failures are "clean": a failed operation consumes channel
// time but never mutates switch state, so there is no ambiguity about
// whether a timed-out update landed. The ambiguous case — a message
// channel where the request or only its acknowledgment may be lost —
// is modeled separately: LinkProfile (this package) configures the
// message-level faults, netsim.Link carries them, and internal/ctlchan
// supplies the sequence-numbered idempotency tokens and resync audit
// that put at-most-once semantics back on top. An Injector below the
// channel composes with a LinkProfile on it.
package faults

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/driver"
	"repro/internal/sim"
)

// Profile configures which faults an Injector produces and how often.
// The zero value injects nothing.
type Profile struct {
	// Name labels the profile in stats output and sweep tables.
	Name string

	// ErrorRate is the per-operation probability of a transient failure:
	// the op consumes failCost of channel time and returns an error
	// wrapping driver.ErrTransient without touching the switch.
	ErrorRate float64
	// ErrorBurst makes each triggered failure repeat for the next
	// ErrorBurst-1 operations too (timeouts cluster: a wedged daemon
	// fails every request until it recovers). 0 or 1 = single failures.
	ErrorBurst int

	// SpikeRate is the per-operation probability of a latency spike:
	// the op succeeds but takes an extra SpikeDelay of channel time.
	SpikeRate float64
	// SpikeDelay is the added latency of one spike.
	SpikeDelay time.Duration

	// PartialBatchRate is the per-BatchRead probability that the
	// transaction aborts after reading a strict prefix of its ranges.
	// The prefix's channel time is paid; no values are returned.
	PartialBatchRate float64

	// StuckEvery/StuckFor open a periodic stuck-channel window: every
	// StuckEvery of virtual time the channel wedges for StuckFor, and
	// operations issued inside the window block until it closes before
	// proceeding. StuckEvery == 0 disables.
	StuckEvery time.Duration
	StuckFor   time.Duration

	// CrashAtOp, when > 0, halts the calling process immediately before
	// the Nth matching operation observed while injection is enabled
	// (1-based) — the model of a control-plane process crash: the op
	// never executes, everything already written stays exactly as
	// written, and the process never touches the channel again. Unlike
	// the transient faults above, a crash is not survivable in-process;
	// it exists to exercise the journal/takeover machinery
	// (internal/journal, core.Recover). The injector must wrap the
	// crashing client's own channel (e.g. its ctlplane session), not a
	// layer shared with other clients.
	CrashAtOp int
	// CrashOp restricts the op counting to one named channel operation
	// ("AddEntry", "ModifyEntry", "SetDefaultAction", "BatchRead", ...);
	// empty counts every operation. Combined with CrashAtOp this pins
	// the crash to a protocol phase of a known scenario (e.g. the 3rd
	// ModifyEntry after enable = the first post-flip mirror write in the
	// two-table chaos workload).
	CrashOp string
}

// failCost is the channel time a transiently failed operation consumes
// (the timeout the caller waited out).
const failCost = 2 * time.Microsecond

// Predefined profiles, one per fault class the chaos suite exercises.

// None injects nothing (control profile).
func None() Profile { return Profile{Name: "none"} }

// TransientErrors makes ~5% of operations fail transiently, in bursts
// of up to 2.
func TransientErrors() Profile {
	return Profile{Name: "transient", ErrorRate: 0.05, ErrorBurst: 2}
}

// LatencySpikes adds a 200µs stall to ~5% of operations — an order of
// magnitude above the per-op cost, enough to blow an iteration budget.
func LatencySpikes() Profile {
	return Profile{Name: "latency", SpikeRate: 0.05, SpikeDelay: 200 * time.Microsecond}
}

// PartialBatches aborts ~10% of batched reads partway and sprinkles a
// low rate of plain transient failures on top.
func PartialBatches() Profile {
	return Profile{Name: "partial-batch", PartialBatchRate: 0.10, ErrorRate: 0.01}
}

// StuckChannel wedges the channel for 300µs out of every 2ms — long
// enough to trip a per-iteration watchdog set below 300µs.
func StuckChannel() Profile {
	return Profile{Name: "stuck", StuckEvery: 2 * time.Millisecond, StuckFor: 300 * time.Microsecond}
}

// The crash profiles pin a process crash to one phase of the two-table
// chaos workload's dialogue iteration, whose driver-op sequence per
// committing iteration is: SetDefaultAction (mv flip), BatchRead
// (poll), ModifyEntry ×2 (prepares), SetDefaultAction (vv flip),
// ModifyEntry ×2 (mirrors). The op counts are relative to the moment
// injection is enabled; the failover rig additionally sweeps every op
// index, so these named profiles are the reproducible landmarks, not
// the only crash points tested.

// CrashMidPrepare halts the agent between the two shadow prepares of a
// commit: one table's shadow carries the new value, the other the old —
// the canonical torn-prepare state recovery must roll back.
func CrashMidPrepare() Profile {
	return Profile{Name: "crash-prepare", CrashOp: "ModifyEntry", CrashAtOp: 2}
}

// CrashAtCommit halts the agent immediately before a master
// default-action write (an mv or vv flip): the flip never executes, so
// recovery must classify the iteration as never committed.
func CrashAtCommit() Profile {
	return Profile{Name: "crash-commit", CrashOp: "SetDefaultAction", CrashAtOp: 2}
}

// CrashMidMirror halts the agent after the vv flip but before the
// mirror writes complete: the change is committed and packet-visible,
// and recovery must roll the unfinished shadow copies forward.
func CrashMidMirror() Profile {
	return Profile{Name: "crash-mirror", CrashOp: "ModifyEntry", CrashAtOp: 3}
}

// CrashEnabled reports whether the profile halts the process at an
// injection point (such profiles need the failover rig, not the
// in-process recovery loop).
func (pr Profile) CrashEnabled() bool { return pr.CrashAtOp > 0 }

// Profiles returns the chaos-suite sweep: every predefined fault
// profile, control first. The crash profiles come last; runners that
// cannot host a standby takeover should branch on CrashEnabled.
func Profiles() []Profile {
	return []Profile{
		None(), TransientErrors(), LatencySpikes(), PartialBatches(), StuckChannel(),
		CrashMidPrepare(), CrashAtCommit(), CrashMidMirror(),
	}
}

// Stats counts injected faults.
type Stats struct {
	// Ops is the number of operations that entered the injector.
	Ops uint64
	// InjectedErrors counts transiently failed operations.
	InjectedErrors uint64
	// InjectedSpikes counts latency spikes.
	InjectedSpikes uint64
	// PartialBatches counts batched reads aborted partway.
	PartialBatches uint64
	// StuckWaits counts operations that blocked on a stuck window.
	StuckWaits uint64
	// StuckTime accumulates time operations spent blocked on stuck
	// windows.
	StuckTime time.Duration
	// Crashes counts injected process crashes (0 or 1 per injector).
	Crashes uint64
}

// Injector wraps a driver.Channel and injects faults per its Profile.
// It implements driver.Channel itself (the embedded Adapter, over Do),
// so it stacks; Memoize, Switch and Stats pass through to the wrapped
// channel, since prologue metadata precomputation is local to the
// control plane and cannot fault.
type Injector struct {
	driver.Adapter
	inner   driver.Channel
	sim     *sim.Simulator
	prof    Profile
	rng     *rand.Rand
	enabled bool

	// burstLeft counts remaining forced failures of the current burst.
	burstLeft int

	// crashSeen counts matching ops toward CrashAtOp; crashed/crashedAt
	// record the injected process crash.
	crashSeen int
	crashed   bool
	crashedAt sim.Time

	stats Stats
}

var (
	_ driver.Channel     = (*Injector)(nil)
	_ driver.RangeReader = (*Injector)(nil)
)

// Wrap interposes an Injector between a control-plane client and inner.
// The injector draws fault decisions from its own RNG seeded with seed,
// independent of the simulator's stream, so adding or removing fault
// injection never perturbs workload randomness.
func Wrap(s *sim.Simulator, inner driver.Channel, prof Profile, seed int64) *Injector {
	f := &Injector{
		inner:   inner,
		sim:     s,
		prof:    prof,
		rng:     rand.New(rand.NewSource(seed)),
		enabled: true,
	}
	f.Adapter = driver.NewAdapter(f.Do, inner)
	return f
}

// SetEnabled toggles injection at runtime (e.g. to confine faults to a
// window of an experiment). Disabled, the injector is a transparent
// pass-through; the RNG does not advance.
func (f *Injector) SetEnabled(on bool) { f.enabled = on }

// Profile returns the active fault profile.
func (f *Injector) Profile() Profile { return f.prof }

// FaultStats returns a copy of the injection counters. (Stats() is the
// driver.Channel pass-through to the wrapped channel's driver counters.)
func (f *Injector) FaultStats() Stats { return f.stats }

// stall blocks p until the current stuck window (if any) closes.
func (f *Injector) stall(p *sim.Proc) {
	if f.prof.StuckEvery <= 0 || f.prof.StuckFor <= 0 {
		return
	}
	period := f.prof.StuckEvery + f.prof.StuckFor
	phase := time.Duration(int64(p.Now()) % int64(period))
	if phase < f.prof.StuckEvery {
		return // channel currently responsive
	}
	wait := period - phase
	f.stats.StuckWaits++
	f.stats.StuckTime += wait
	p.Sleep(wait)
}

// inject runs the common fault prologue for one operation. A non-nil
// return is the injected transient error; the underlying driver must
// not be called.
func (f *Injector) inject(p *sim.Proc, op string) error {
	f.stats.Ops++
	if !f.enabled {
		return nil
	}
	if f.crashed {
		// A crashed process never touches the channel again; any process
		// that reaches a dead injector halts too (there is exactly one
		// client above a crash injector by contract).
		f.halt(p)
	}
	if f.prof.CrashAtOp > 0 && (f.prof.CrashOp == "" || f.prof.CrashOp == op) {
		f.crashSeen++
		if f.crashSeen == f.prof.CrashAtOp {
			f.crashed = true
			f.crashedAt = p.Now()
			f.stats.Crashes++
			f.halt(p)
		}
	}
	f.stall(p)
	if f.prof.SpikeRate > 0 && f.rng.Float64() < f.prof.SpikeRate {
		f.stats.InjectedSpikes++
		p.Sleep(f.prof.SpikeDelay)
	}
	if f.burstLeft > 0 {
		f.burstLeft--
		return f.fail(p, op)
	}
	if f.prof.ErrorRate > 0 && f.rng.Float64() < f.prof.ErrorRate {
		if f.prof.ErrorBurst > 1 {
			f.burstLeft = f.prof.ErrorBurst - 1
		}
		return f.fail(p, op)
	}
	return nil
}

// halt parks the calling process forever — the simulation's model of a
// process crash (see sim.Proc.Park: the goroutine leaks by design). The
// loop re-parks against stray Unparks so a crashed process can never
// resume.
func (f *Injector) halt(p *sim.Proc) {
	for {
		p.Park()
	}
}

// Crashed reports whether the injector's crash point fired.
func (f *Injector) Crashed() bool { return f.crashed }

// CrashedAt returns the virtual time of the injected crash (0 if none
// fired yet).
func (f *Injector) CrashedAt() sim.Time { return f.crashedAt }

// fail consumes the timeout cost and returns a transient error.
func (f *Injector) fail(p *sim.Proc, op string) error {
	f.stats.InjectedErrors++
	p.Sleep(failCost)
	return fmt.Errorf("faults: injected %s failure at %v: %w", op, p.Now(), driver.ErrTransient)
}

// Do runs one operation through the injector: the common fault prologue,
// keyed by the op's Channel method name, then the wrapped channel. A
// range read can additionally abort partway, paying for a prefix of its
// ranges and reporting no values (the prefix's rows are overwritten and
// must not be used).
func (f *Injector) Do(p *sim.Proc, op *driver.Op) error {
	if err := f.inject(p, op.Kind.String()); err != nil {
		return err
	}
	if op.Kind == driver.OpRead && f.enabled && f.prof.PartialBatchRate > 0 && len(op.Reqs) > 1 &&
		f.rng.Float64() < f.prof.PartialBatchRate {
		f.stats.PartialBatches++
		cut := 1 + f.rng.Intn(len(op.Reqs)-1)
		prefix := driver.Op{Kind: driver.OpRead, Reqs: op.Reqs[:cut], Rows: op.Rows[:cut]}
		if err := driver.Apply(f.inner, p, &prefix); err != nil {
			return err
		}
		return fmt.Errorf("faults: batch read aborted after %d/%d ranges at %v: %w",
			cut, len(op.Reqs), p.Now(), driver.ErrTransient)
	}
	return driver.Apply(f.inner, p, op)
}

// ReadReq aliases the driver's batched-read request type for callers
// importing only this package.
type ReadReq = driver.ReadReq
