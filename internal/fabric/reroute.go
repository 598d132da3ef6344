package fabric

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/usecases"
)

// This file instantiates the failure-resilience scenario behind the
// fig-reroute experiment: ring traffic (each leaf's TCP senders stream
// to a receiver on the next leaf) while one trunk — or one whole spine
// — fails underneath it. The per-leaf gray detectors and the
// coordinator's ECMP-exclude reroutes are the reaction under test; the
// metric is legitimate goodput through the failure: how deep it dips,
// how fast it recovers once routes move, and how cleanly everything
// returns home after the heal.

// RerouteMode selects the injected failure.
type RerouteMode string

const (
	// ModeLinkDown takes one leaf↔spine trunk administratively down:
	// total loss on one trunk, the clean-cut failure.
	ModeLinkDown RerouteMode = "link-down"
	// ModeGray turns the same trunk gray (silent partial drop): the
	// failure that never trips admin alarms and only probe accounting
	// can see.
	ModeGray RerouteMode = "gray"
	// ModeCrash kills a whole spine: every trunk down, control
	// endpoints dead, agent halted.
	ModeCrash RerouteMode = "crash"
)

// RerouteFabricConfig parameterizes the scenario.
type RerouteFabricConfig struct {
	Fabric Config
	// Mode is the injected failure (default ModeLinkDown).
	Mode RerouteMode
}

// Fixed parameters of the scenario.
const (
	// rerouteGrayRate is ModeGray's silent drop probability.
	rerouteGrayRate = 0.30
	// rerouteSendersPerLeaf TCP senders per leaf, each paced at
	// reroutePerSenderBps, stream to the receiver on the next leaf
	// around the ring.
	rerouteSendersPerLeaf = 2
	reroutePerSenderBps   = 400e6
	// rerouteBucket is the goodput-series resolution — wide enough that
	// a paced sender lands several MSS per bucket, so the recovery bar is
	// not defeated by packet granularity.
	rerouteBucket = 200 * time.Microsecond
)

// RerouteFabric is a built fabric running the failure scenario.
type RerouteFabric struct {
	Sim *sim.Simulator
	F   *Fabric
	Cfg RerouteFabricConfig

	// TargetSpine is the spine the failure touches. For the link modes
	// the failed trunk is Trunks[0][TargetSpine] — chosen as the spine
	// carrying leaf 0's ring flows, so the failure is guaranteed to sit
	// on live traffic.
	TargetSpine int

	// FailAt/HealAt are stamped by Run.
	FailAt sim.Time
	HealAt sim.Time

	// buckets[i] is legitimate bytes delivered (in order, at any
	// receiver) during [i·rerouteBucket, (i+1)·rerouteBucket).
	buckets []uint64
}

// NewRerouteFabric builds the fabric and wires the ring traffic.
func NewRerouteFabric(s *sim.Simulator, cfg RerouteFabricConfig) (*RerouteFabric, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeLinkDown
	}
	if cfg.Fabric.Leaves < 2 {
		return nil, fmt.Errorf("fabric: reroute scenario needs ≥2 leaves")
	}
	if cfg.Fabric.Spines < 2 {
		return nil, fmt.Errorf("fabric: reroute scenario needs ≥2 spines (no alternate path otherwise)")
	}
	f, err := Build(s, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	fc := f.Cfg
	r := &RerouteFabric{Sim: s, F: f, Cfg: cfg}
	// The ring traffic here is all legitimate, but the leaf program's
	// dos_react attributes each leaf's whole marginal byte count to the
	// sampled sender, so at its 1 Gbps bar the ~1.6 Gbps aggregate per
	// leaf would blocklist benign senders. The Go detector replaces it,
	// with the threshold parked far above anything this scenario can
	// generate.
	for _, leaf := range f.Leaves {
		det := usecases.NewDosDetector(usecases.DosConfig{
			ThresholdBps: 1e12, MinDuration: 50 * time.Microsecond,
		})
		if err := leaf.Agent.RegisterNativeReaction("dos_react", det.React); err != nil {
			return nil, err
		}
	}

	rcvPort := fc.HostPorts - 1
	record := func(at sim.Time, bytes int) {
		idx := int(int64(at) / int64(rerouteBucket))
		for len(r.buckets) <= idx {
			r.buckets = append(r.buckets, 0)
		}
		r.buckets[idx] += uint64(bytes)
	}
	for l, leaf := range f.Leaves {
		next := (l + 1) % fc.Leaves
		rcvAddr := HostAddr(next, rcvPort)
		usecases.WireDosVictim(f.Leaves[next].Net, usecases.DosAddressing{
			VictimAddr: rcvAddr, VictimPort: rcvPort,
		})
		lCopy := l
		senderPorts := fc.HostPorts - 1
		usecases.WireDosSenders(leaf.Net, rerouteSendersPerLeaf, reroutePerSenderBps,
			usecases.DosAddressing{
				VictimAddr: rcvAddr, VictimPort: rcvPort,
				SenderAddr: func(i int) uint32 { return HostAddr(lCopy, i%senderPorts) },
				SenderPort: func(i int) int { return i % senderPorts },
			}, record)
	}

	// The failure lands on the spine carrying leaf 0's flows.
	r.TargetSpine = f.SpineFor(HostAddr(1%fc.Leaves, rcvPort))
	return r, nil
}

// Run drives the scenario: warmup, inject the failure, let detection
// and reroute play out for failWindow, heal, then run healWindow for
// the restore and stop.
func (r *RerouteFabric) Run(warmup, failWindow, healWindow time.Duration) error {
	r.F.Start()
	r.Sim.RunFor(warmup)
	r.FailAt = r.Sim.Now()
	if err := r.inject(true); err != nil {
		return err
	}
	r.Sim.RunFor(failWindow)
	r.HealAt = r.Sim.Now()
	if err := r.inject(false); err != nil {
		return err
	}
	r.Sim.RunFor(healWindow)
	r.F.Stop()
	r.Sim.RunFor(200 * time.Microsecond)
	if err := r.F.Err(); err != nil {
		return err
	}
	return r.F.Coord.Err()
}

// inject applies (fail=true) or clears the configured failure.
func (r *RerouteFabric) inject(fail bool) error {
	switch r.Cfg.Mode {
	case ModeLinkDown:
		r.F.Trunks[0][r.TargetSpine].SetAdminDown(fail)
	case ModeGray:
		rate := 0.0
		if fail {
			rate = rerouteGrayRate
		}
		r.F.Trunks[0][r.TargetSpine].SetGray(rate)
	case ModeCrash:
		name := r.F.Spines[r.TargetSpine].Name
		if fail {
			return r.F.Crash(name)
		}
		return r.F.Restore(name)
	default:
		return fmt.Errorf("fabric: unknown reroute mode %q", r.Cfg.Mode)
	}
	return nil
}

// Goodput returns the mean delivered rate (bytes/sec) across buckets
// fully inside [from, to). Zero if the window holds no full bucket.
func (r *RerouteFabric) Goodput(from, to sim.Time) float64 {
	const b = int64(rerouteBucket)
	first := (int64(from) + b - 1) / b
	last := int64(to) / b // exclusive
	if last <= first {
		return 0
	}
	var total uint64
	for i := first; i < last; i++ {
		if i >= 0 && int(i) < len(r.buckets) {
			total += r.buckets[i]
		}
	}
	return float64(total) / (time.Duration((last - first) * b)).Seconds()
}

// MinGoodput returns the smallest single-bucket rate (bytes/sec) over
// buckets fully inside [from, to).
func (r *RerouteFabric) MinGoodput(from, to sim.Time) float64 {
	const b = int64(rerouteBucket)
	first := (int64(from) + b - 1) / b
	last := int64(to) / b
	min := -1.0
	for i := first; i < last; i++ {
		var v uint64
		if i >= 0 && int(i) < len(r.buckets) {
			v = r.buckets[i]
		}
		rate := float64(v) / rerouteBucket.Seconds()
		if min < 0 || rate < min {
			min = rate
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// RecoveredAt returns the start of the first bucket at or after `from`
// from which two consecutive buckets deliver at least frac·ref
// bytes/sec, or zero if goodput never recovers before `to`.
func (r *RerouteFabric) RecoveredAt(from, to sim.Time, ref, frac float64) sim.Time {
	const b = int64(rerouteBucket)
	first := (int64(from) + b - 1) / b
	last := int64(to) / b
	bar := ref * frac * rerouteBucket.Seconds() // bytes per bucket
	for i := first; i+1 < last; i++ {
		ok := true
		for j := i; j <= i+1; j++ {
			var v uint64
			if j >= 0 && int(j) < len(r.buckets) {
				v = r.buckets[j]
			}
			if float64(v) < bar {
				ok = false
				break
			}
		}
		if ok {
			return sim.Time(i * b)
		}
	}
	return 0
}

// RerouteSpan summarizes the coordinator's reaction records matching
// exclude, within [from, ∞): the earliest trigger, the latest
// completion, and the total routes moved. ok is false if no matching
// record exists or any is still incomplete.
func (r *RerouteFabric) RerouteSpan(exclude bool, from sim.Time) (first, lastDone sim.Time, moves int, ok bool) {
	for _, rr := range r.F.Coord.Reroutes() {
		if rr.Exclude != exclude || rr.At < from {
			continue
		}
		if first == 0 || rr.At < first {
			first = rr.At
		}
		if rr.DoneAt == 0 && rr.Moves > 0 {
			return first, 0, moves, false
		}
		if rr.DoneAt > lastDone {
			lastDone = rr.DoneAt
		}
		moves += rr.Moves
	}
	return first, lastDone, moves, first != 0
}
