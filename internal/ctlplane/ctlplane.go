// Package ctlplane is the runtime control-plane service between
// control-plane clients and the switch driver.
//
// The paper's agent shares the switch CPU with legacy control planes
// (§6, Fig. 12), but raw driver access gives every caller the same
// standing: operations serialize in arrival order, one aggressive bulk
// writer can starve the reaction loop, and nothing bounds how much work
// a client may have in flight. Real runtime-control stacks (P4Runtime,
// RBFRT) solve this with a mediating service, and this package is that
// layer for the simulated stack:
//
//   - Sessions with role arbitration: exactly one primary writer
//     (election ids break ties, higher wins and demotes the incumbent),
//     any number of read-only observers, and legacy bulk-writer
//     sessions for coexisting control planes.
//
//   - A request scheduler with bounded per-session queues, strict
//     priority of the dialogue class over the bulk class, round-robin
//     fairness within a class, and an optional global-FIFO policy that
//     serves as the no-scheduler baseline in the fig12x experiment.
//
//   - Explicit backpressure: a call on a session whose queue is full is
//     rejected with a typed error (ErrQueueFull), never dropped or
//     silently delayed.
//
//   - Range merging: overlapping or adjacent register ranges inside one
//     read reach the driver as one range (one per-range setup cost
//     instead of several).
//
// A Session implements driver.Channel, so existing clients — the
// Mantis agent, the fault-injection chaos suite, the experiment
// drivers — drop onto the service without code changes; the fault
// injector sits *below* the service (driver -> faults.Injector ->
// Service), so chaos profiles exercise the whole stack.
//
// The service is an arbiter, not a process: every client is a
// synchronous caller, so a call queues, parks until the scheduler hands
// it the service, runs its operation on the caller's own process, and
// hands the service to the next caller the policy picks. Service is
// non-preemptive at operation granularity, like the PCIe channel it
// fronts: a dialogue request never interrupts a bulk operation already
// in flight, it only jumps the queue ahead of bulk operations not yet
// started.
package ctlplane

import (
	"repro/internal/driver"
	"repro/internal/sim"
)

// Class is a scheduling class, derived from the session role: primaries
// are ClassDialogue, observers and legacy writers ClassBulk. The
// dialogue class is always served before the bulk class under the
// priority policy.
type Class int

const (
	// ClassDialogue is the high-priority class of the Mantis reaction
	// loop: short, latency-critical operation streams.
	ClassDialogue Class = iota
	// ClassBulk is the low-priority class of legacy control planes and
	// observers: throughput-oriented, tolerant of queueing.
	ClassBulk
)

// String names the class for stats output.
func (c Class) String() string {
	if c == ClassDialogue {
		return "dialogue"
	}
	return "bulk"
}

// classOrder is the strict priority order of the scheduler.
var classOrder = [...]Class{ClassDialogue, ClassBulk}

// Policy selects how the service picks the next caller.
type Policy int

const (
	// PolicyPriority serves classes in strict priority order and
	// sessions within a class round-robin. The default.
	PolicyPriority Policy = iota
	// PolicyFIFO serves requests in global arrival order regardless of
	// class — the naive single-queue behavior of the raw driver channel,
	// kept as the measurable baseline for the fig12x experiment.
	PolicyFIFO
)

// String names the policy for experiment tables.
func (p Policy) String() string {
	if p == PolicyFIFO {
		return "fifo"
	}
	return "priority"
}

// Options configures a Service.
type Options struct {
	// Policy is the scheduling policy (default PolicyPriority).
	Policy Policy
}

// MaxQueued bounds how many callers may wait on one session at once.
const MaxQueued = 64

// Stats counts service-wide scheduler activity. Per-session counters
// live in SessionStats.
type Stats struct {
	// DialogueOps and BulkOps count served requests per class.
	DialogueOps uint64
	BulkOps     uint64
	// ReadTransactions counts driver read transactions issued.
	ReadTransactions uint64
	// ReadsCoalesced is always 0: requests are no longer merged across
	// calls. The field stays because bench/ reads it, until a [benchmark]
	// PR drops ctlplane.reads_coalesced_per_kop.
	ReadsCoalesced uint64
	// RangesMerged counts register ranges folded into an adjacent range
	// within one read (the saved per-range setup costs).
	RangesMerged uint64
	// WriteTransactions counts writes issued to the driver channel.
	WriteTransactions uint64
	// Rejections counts calls refused with ErrQueueFull.
	Rejections uint64
	// Demotions counts primaries displaced by a higher election id.
	Demotions uint64
}

// Service mediates control-plane access to one driver channel.
type Service struct {
	ch   driver.Channel
	opts Options

	sessions []*Session
	nextID   int
	seq      uint64 // global arrival sequence, for PolicyFIFO

	primary *Session // current primary writer, nil if none

	// held is set while some caller has the service: it is running its
	// operation, has been granted the service and not yet resumed, or is
	// the first arrival deciding whom to grant it to.
	held bool

	// rrNext[class] is the session index to start the round-robin scan
	// at for that class.
	rrNext map[Class]int

	// free and reads keep the steady-state paths allocation-free.
	free  []*waiter
	reads readScratch

	stats Stats
}

// New returns a control-plane service over ch. The service is not a
// process and keeps no clock of its own, so the simulator is unused; the
// parameter stays because bench/, which this package may not change,
// passes it.
func New(_ *sim.Simulator, ch driver.Channel, opts Options) *Service {
	return &Service{ch: ch, opts: opts, rrNext: make(map[Class]int)}
}

// Channel returns the underlying driver channel the service fronts.
func (svc *Service) Channel() driver.Channel { return svc.ch }

// Stats returns a copy of the service counters.
func (svc *Service) Stats() Stats { return svc.stats }

// RingStats is what is left of the driver submission ring's counters:
// a write is one op applied to the channel, so both equal
// Stats.WriteTransactions. The type and accessor stay because bench/
// reads them, until a [benchmark] PR drops ctlplane.writes_per_flush.
type RingStats struct {
	Flushes    uint64
	OpsFlushed uint64
}

// RingStats returns the write count under both of its legacy names.
func (svc *Service) RingStats() RingStats {
	n := svc.stats.WriteTransactions
	return RingStats{Flushes: n, OpsFlushed: n}
}

// Sessions returns the open sessions (closed ones are pruned).
func (svc *Service) Sessions() []*Session {
	var out []*Session
	for _, s := range svc.sessions {
		if !s.closed {
			out = append(out, s)
		}
	}
	return out
}

// Primary returns the current primary writer session, or nil.
func (svc *Service) Primary() *Session {
	if svc.primary != nil && svc.primary.closed {
		return nil
	}
	return svc.primary
}

// next picks the caller to serve — always the head of some session's
// queue, so per-session ordering is preserved under every policy.
func (svc *Service) next() *waiter {
	if svc.opts.Policy == PolicyFIFO {
		var best *waiter
		for _, s := range svc.sessions {
			if len(s.queue) > 0 && (best == nil || s.queue[0].seq < best.seq) {
				best = s.queue[0]
			}
		}
		return best
	}
	for _, class := range classOrder {
		if w := svc.nextInClass(class); w != nil {
			return w
		}
	}
	return nil
}

// nextInClass round-robins across the class's sessions with pending
// work, resuming after the last session served.
func (svc *Service) nextInClass(class Class) *waiter {
	n := len(svc.sessions)
	if n == 0 {
		return nil
	}
	start := svc.rrNext[class] % n
	for i := 0; i < n; i++ {
		s := svc.sessions[(start+i)%n]
		if s.class == class && len(s.queue) > 0 {
			svc.rrNext[class] = (start + i + 1) % n
			return s.queue[0]
		}
	}
	return nil
}

// grant hands the service to the caller the policy picks, or marks it
// free when nobody waits. The pick leaves its session's queue here, so
// closing the session no longer fails it: like a request in flight, it
// runs (a write re-checks its permission first).
func (svc *Service) grant() {
	w := svc.next()
	if w == nil {
		svc.held = false
		return
	}
	// Shift the remainder down rather than re-slicing from the front: the
	// queue keeps its capacity, so queueing does not reallocate it.
	q := w.sess.queue
	n := copy(q, q[1:])
	q[n] = nil
	w.sess.queue = q[:n]
	w.granted = true
	w.wake()
}

// serve runs the granted caller's operation on its own process, records
// it on the session and passes the service on — at the completion
// instant, before the caller returns, so a request it submits next queues
// behind the pick.
func (svc *Service) serve(p *sim.Proc, w *waiter, op *driver.Op) error {
	s := w.sess
	if s.class == ClassDialogue {
		svc.stats.DialogueOps++
	} else {
		svc.stats.BulkOps++
	}
	start := p.Now()
	var err error
	switch {
	case op.Kind.Mutating():
		err = svc.write(p, s, op)
	case op.Kind == driver.OpRegRead, op.Kind == driver.OpRead && op.Batched:
		err = svc.read(p, op)
	default:
		// Audit reads and the unbatched-read ablation (merging it would
		// measure nothing) go to the channel as they are.
		err = driver.Apply(svc.ch, p, op)
	}

	st := &s.stats
	st.Completed++
	if err != nil {
		st.Failed++
	}
	wait := start.Sub(w.enqueuedAt)
	st.TotalWait += wait
	if wait > st.MaxWait {
		st.MaxWait = wait
	}
	st.TotalService += p.Now().Sub(start)
	svc.grant()
	if svc.held {
		// The next operation starts one event from now, on its own caller's
		// process. Resume behind it, so that whatever this caller schedules
		// next — a wake-up that may tie with that operation's completion —
		// is ordered after the completion. That order decides whether a
		// caller whose think time equals the next service time is in time
		// for the next pick; TestScheduleMatchesParent pins it.
		p.Yield()
	}
	return err
}

// write applies the caller's op to the channel. Permission is re-checked
// here, not only on admission: the session may have been demoted or
// closed while the caller waited.
func (svc *Service) write(p *sim.Proc, s *Session, op *driver.Op) error {
	if err := s.writable(); err != nil {
		return err
	}
	svc.stats.WriteTransactions++
	return driver.Apply(svc.ch, p, op)
}

// readScratch is the service's working storage for one register read:
// the single range of a RegRead, the merge plan, and the result matrix
// the driver fills. All of it is overwritten by the next read.
type readScratch struct {
	one    [1]driver.ReadReq
	order  []int
	merged []driver.ReadReq
	where  []readSlot
	rows   [][]uint64
}

// read merges op's register ranges into one driver transaction and
// copies the values out to the caller's rows (or Val). Every range
// observes values captured at the same completion instant — the snapshot
// semantics a BatchRead already has.
func (svc *Service) read(p *sim.Proc, op *driver.Op) error {
	sc := &svc.reads
	reqs := op.Reqs
	if op.Kind == driver.OpRegRead {
		sc.one[0] = driver.ReadReq{Reg: op.Table, Lo: op.Idx, Hi: op.Idx + 1}
		reqs = sc.one[:]
	}
	merged := sc.merge(reqs)
	svc.stats.ReadTransactions++
	svc.stats.RangesMerged += uint64(len(reqs) - len(merged))

	for len(sc.rows) < len(merged) {
		sc.rows = append(sc.rows, nil)
	}
	vals := sc.rows[:len(merged)]
	read := driver.Op{Kind: driver.OpRead, Batched: true, Reqs: merged, Rows: vals}
	if err := driver.Apply(svc.ch, p, &read); err != nil {
		return err
	}
	if op.Kind == driver.OpRegRead {
		op.Val = vals[0][0]
		return nil
	}
	for j, w := range sc.where {
		op.Rows[j] = append(op.Rows[j][:0], vals[w.idx][w.off:w.off+w.n]...)
	}
	return nil
}

// readSlot locates one original range inside the merged request list.
type readSlot struct {
	idx int // merged range index
	off int // cell offset within the merged range
	n   int // cell count
}

// merge folds overlapping or adjacent ranges of reqs on the same
// register into unions, returning the merged list and leaving in
// sc.where, for each original range, where its values live in the
// merged results. Ranges on distinct registers or with gaps between them
// stay separate — merging across a gap would DMA cells nobody asked for.
func (sc *readScratch) merge(reqs []driver.ReadReq) []driver.ReadReq {
	sc.where = sc.where[:0]
	if len(reqs) <= 1 {
		for i, r := range reqs {
			sc.where = append(sc.where, readSlot{idx: i, n: int(r.Hi - r.Lo)})
		}
		return reqs
	}
	order := sc.order[:0]
	for i := range reqs {
		order = append(order, i)
		sc.where = append(sc.where, readSlot{})
	}
	sc.order = order
	// Insertion sort by (register, Lo): request lists are short (a
	// handful of reactions' params), and stability is irrelevant since
	// ties resolve identically.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := reqs[order[j]], reqs[order[j-1]]
			if a.Reg < b.Reg || (a.Reg == b.Reg && a.Lo < b.Lo) {
				order[j], order[j-1] = order[j-1], order[j]
			} else {
				break
			}
		}
	}
	merged := sc.merged[:0]
	for _, oi := range order {
		r := reqs[oi]
		if n := len(merged); n > 0 && merged[n-1].Reg == r.Reg && r.Lo <= merged[n-1].Hi {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
		} else {
			merged = append(merged, r)
		}
		last := merged[len(merged)-1]
		sc.where[oi] = readSlot{idx: len(merged) - 1, off: int(r.Lo - last.Lo), n: int(r.Hi - r.Lo)}
	}
	sc.merged = merged
	return merged
}
