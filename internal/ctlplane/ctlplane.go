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
//   - Explicit backpressure: a submission to a full queue is rejected
//     with a typed error (ErrQueueFull), never dropped or silently
//     delayed.
//
//   - Batching: adjacent register-read requests queued on one session
//     coalesce into a single driver transaction (one base cost instead
//     of many — the same economics as the driver's own BatchRead), and
//     adjacent pipelined writes to the same table entry collapse to the
//     final value before any reaches the device.
//
// A Session implements driver.Channel, so existing clients — the
// Mantis agent, the fault-injection chaos suite, the experiment
// drivers — drop onto the service without code changes; the fault
// injector sits *below* the service (driver -> faults.Injector ->
// Service), so chaos profiles exercise the whole stack.
//
// The service runs as one simulated process (the dispatcher) that
// executes requests against the underlying channel one scheduling
// decision at a time. Service is non-preemptive at operation
// granularity, like the PCIe channel it fronts: a dialogue request
// never interrupts a bulk operation already in flight, it only jumps
// the queue ahead of bulk operations not yet started.
package ctlplane

import (
	"repro/internal/driver"
	"repro/internal/sim"
)

// Class is a scheduling class. The dialogue class is always served
// before the bulk class under the priority policy.
type Class int

const (
	// ClassAuto derives the class from the session role: primaries get
	// ClassDialogue, observers and legacy writers get ClassBulk.
	ClassAuto Class = iota
	// ClassDialogue is the high-priority class of the Mantis reaction
	// loop: short, latency-critical operation streams.
	ClassDialogue
	// ClassBulk is the low-priority class of legacy control planes and
	// observers: throughput-oriented, tolerant of queueing.
	ClassBulk
)

// String names the class for stats output.
func (c Class) String() string {
	switch c {
	case ClassDialogue:
		return "dialogue"
	case ClassBulk:
		return "bulk"
	default:
		return "auto"
	}
}

// classOrder is the strict priority order of the scheduler.
var classOrder = [...]Class{ClassDialogue, ClassBulk}

// Policy selects how the dispatcher picks the next request.
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
	// DefaultQueueLimit bounds each session's request queue when the
	// session does not set its own limit. 0 = 64.
	DefaultQueueLimit int
	// CoalesceLimit caps how many adjacent queued requests merge into
	// one dispatch (reads into one driver transaction, same-entry writes
	// into the last value). 0 = 8; 1 disables coalescing.
	CoalesceLimit int
	// RingSize is the depth of the driver submission ring write requests
	// flush through. 0 = driver.DefaultRingSize; values below
	// CoalesceLimit are raised to it so one dispatch batch always fits.
	RingSize int
}

// DefaultQueueLimit is the per-session queue bound when neither the
// service options nor the session options set one.
const DefaultQueueLimit = 64

// DefaultCoalesceLimit is the default cap on requests merged per
// dispatch.
const DefaultCoalesceLimit = 8

// Stats counts service-wide scheduler activity. Per-session counters
// live in SessionStats.
type Stats struct {
	// DialogueOps and BulkOps count dispatched requests per class.
	DialogueOps uint64
	BulkOps     uint64
	// ReadTransactions counts driver read transactions issued; when
	// reads coalesce, one transaction completes several requests.
	ReadTransactions uint64
	// ReadsCoalesced counts read requests that rode along in another
	// request's driver transaction (the saved base costs).
	ReadsCoalesced uint64
	// RangesMerged counts register ranges folded into an adjacent range
	// within one transaction (the saved per-range setup costs).
	RangesMerged uint64
	// WritesCoalesced counts pipelined same-entry writes superseded by a
	// newer queued value before reaching the driver.
	WritesCoalesced uint64
	// WriteTransactions counts submission-ring flushes (doorbells); when
	// adjacent writes batch, several requests share one flush.
	WriteTransactions uint64
	// Rejections counts submissions refused with ErrQueueFull.
	Rejections uint64
	// Demotions counts primaries displaced by a higher election id.
	Demotions uint64
}

// Service mediates control-plane access to one driver channel.
type Service struct {
	sim  *sim.Simulator
	ch   driver.Channel
	opts Options

	sessions []*Session
	nextID   int
	seq      uint64 // global arrival sequence, for PolicyFIFO

	primary *Session // current primary writer, nil if none

	disp *sim.Proc
	idle bool

	// rrNext[class] is the session index to start the round-robin scan
	// at for that class.
	rrNext map[Class]int

	// ring is the driver submission ring every write request flushes
	// through. batchBuf, free and reads are dispatcher/sync-path scratch
	// that keep the steady-state paths allocation-free.
	ring     *driver.Ring
	batchBuf []*request
	free     []*request
	reads    readScratch

	stats Stats
}

// New starts a control-plane service over ch. The dispatcher process
// spawns immediately and parks until the first request arrives.
func New(s *sim.Simulator, ch driver.Channel, opts Options) *Service {
	if opts.DefaultQueueLimit <= 0 {
		opts.DefaultQueueLimit = DefaultQueueLimit
	}
	if opts.CoalesceLimit <= 0 {
		opts.CoalesceLimit = DefaultCoalesceLimit
	}
	if opts.RingSize <= 0 {
		opts.RingSize = driver.DefaultRingSize
	}
	if opts.RingSize < opts.CoalesceLimit {
		opts.RingSize = opts.CoalesceLimit
	}
	svc := &Service{sim: s, ch: ch, opts: opts, rrNext: make(map[Class]int)}
	svc.ring = driver.NewRing(ch, opts.RingSize)
	svc.disp = s.Spawn("ctlplane-dispatcher", svc.run)
	return svc
}

// Channel returns the underlying driver channel the service fronts.
func (svc *Service) Channel() driver.Channel { return svc.ch }

// Stats returns a copy of the service counters.
func (svc *Service) Stats() Stats { return svc.stats }

// RingStats returns a copy of the driver submission-ring counters.
func (svc *Service) RingStats() driver.RingStats { return svc.ring.Stats() }

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

// kick wakes the dispatcher if it is parked on empty queues. The idle
// flag flips here, not when Park returns, so two submissions at the
// same instant cannot double-unpark the dispatcher.
func (svc *Service) kick() {
	if svc.idle {
		svc.idle = false
		svc.disp.Unpark()
	}
}

// run is the dispatcher process: pick a request by policy, execute it
// (plus anything coalescible behind it), repeat; park when idle.
func (svc *Service) run(p *sim.Proc) {
	for {
		req := svc.next()
		if req == nil {
			svc.idle = true
			p.Park()
			continue
		}
		svc.dispatch(p, req)
	}
}

// next picks the request to serve — always the head of some session's
// queue, so per-session ordering is preserved under every policy.
func (svc *Service) next() *request {
	if svc.opts.Policy == PolicyFIFO {
		var best *request
		for _, s := range svc.sessions {
			if len(s.queue) > 0 && (best == nil || s.queue[0].seq < best.seq) {
				best = s.queue[0]
			}
		}
		return best
	}
	for _, class := range classOrder {
		if r := svc.nextInClass(class); r != nil {
			return r
		}
	}
	return nil
}

// nextInClass round-robins across the class's sessions with pending
// work, resuming after the last session served.
func (svc *Service) nextInClass(class Class) *request {
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

// dispatch executes the head request of req's session, folding in any
// coalescible run of adjacent queued requests behind it. Reads merge
// into one driver transaction; writes of any kind stage into the
// submission ring and flush as one doorbell; everything else (audit
// reads, the unbatched ablation, opaque closures) is applied alone.
func (svc *Service) dispatch(p *sim.Proc, req *request) {
	s := req.sess
	batch := append(svc.batchBuf[:0], req)
	limit := svc.opts.CoalesceLimit
	ln := req.lane()
	for ln != laneAlone && len(batch) < limit && len(s.queue) > len(batch) && s.queue[len(batch)].lane() == ln {
		batch = append(batch, s.queue[len(batch)])
	}
	// Shift the remainder down rather than re-slicing from the front: the
	// queue keeps its capacity, so enqueue does not reallocate it.
	n := copy(s.queue, s.queue[len(batch):])
	clear(s.queue[n:])
	s.queue = s.queue[:n]

	start := p.Now()
	for _, r := range batch {
		if r.class == ClassDialogue {
			svc.stats.DialogueOps++
		} else {
			svc.stats.BulkOps++
		}
	}

	switch {
	case ln == laneRead:
		svc.executeReads(p, batch)
	case ln == laneRing:
		svc.executeRing(p, batch)
	case req.op != nil:
		req.err = driver.Apply(svc.ch, p, req.op)
	default:
		// An opaque write re-checks permission at dispatch time: the
		// session may have been demoted or closed while it was queued.
		if req.write {
			req.err = req.sess.writable()
		}
		if req.err == nil {
			req.err = req.exec(p, svc.ch)
		}
	}

	end := p.Now()
	for _, r := range batch {
		svc.complete(r, start, end)
	}
	svc.batchBuf = batch[:0]
}

// executeRing stages a run of write requests into the driver submission
// ring — each op copied into its slot with one Set — and flushes them as
// one doorbell. Pipelined
// writes to the same table entry collapse to the newest queued value
// before any descriptor is reserved (write-behind: a synchronous client
// never has two writes queued, so it is unaffected), and every request
// re-checks write permission at dispatch time — the session may have
// been demoted while it was queued.
func (svc *Service) executeRing(p *sim.Proc, batch []*request) {
	for i, r := range batch {
		if r.op.Kind != driver.OpModifyEntry {
			continue
		}
		for _, later := range batch[i+1:] {
			if later.op.Kind == driver.OpModifyEntry && later.sameEntry(r) {
				r.superseded = later
				svc.stats.WritesCoalesced++
				break
			}
		}
	}
	staged := false
	for _, r := range batch {
		if r.superseded != nil {
			continue
		}
		if err := r.sess.writable(); err != nil {
			r.err = err
			continue
		}
		slot, err := svc.ring.Reserve()
		if err != nil {
			// Unreachable when RingSize >= CoalesceLimit (New enforces
			// it), but a typed refusal beats a silent drop.
			r.err = err
			continue
		}
		slot.Set(r.op)
		slot.Tag = r
		staged = true
	}
	if staged {
		svc.stats.WriteTransactions++
		svc.ring.Flush(p)
		svc.ring.Drain(func(slot *driver.Op) {
			r := slot.Tag.(*request)
			r.err = slot.Err
			r.op.NewHandle = slot.NewHandle
		})
	}
	// Superseded writes complete with their winner's outcome. Walk
	// backwards so supersession chains resolve: the winner's error is
	// already settled when an older write copies it.
	for i := len(batch) - 1; i >= 0; i-- {
		if w := batch[i].superseded; w != nil {
			batch[i].err = w.err
			batch[i].superseded = nil
		}
	}
}

// readScratch is the dispatcher's working storage for one coalesced
// read: the concatenated ranges, each request's span in them, the merge
// plan, and the result matrix the driver fills. All of it is overwritten
// by the next read.
type readScratch struct {
	all    []driver.ReadReq
	spans  [][2]int // [start,len) into all, per request
	order  []int
	merged []driver.ReadReq
	where  []readSlot
	rows   [][]uint64
}

// executeReads merges the batch's register ranges into one driver
// transaction and copies the values out to each request's rows (the
// caller's own, on the synchronous path). All requests in the batch
// observe values captured at the same completion instant — the same
// snapshot semantics a single BatchRead already has.
func (svc *Service) executeReads(p *sim.Proc, batch []*request) {
	sc := &svc.reads
	sc.all, sc.spans = sc.all[:0], sc.spans[:0]
	for _, r := range batch {
		lo := len(sc.all)
		if r.op.Kind == driver.OpRegRead {
			sc.all = append(sc.all, driver.ReadReq{Reg: r.op.Table, Lo: r.op.Idx, Hi: r.op.Idx + 1})
		} else {
			sc.all = append(sc.all, r.op.Reqs...)
		}
		sc.spans = append(sc.spans, [2]int{lo, len(sc.all) - lo})
	}
	merged := sc.merge()
	svc.stats.ReadTransactions++
	svc.stats.ReadsCoalesced += uint64(len(batch) - 1)
	svc.stats.RangesMerged += uint64(len(sc.all) - len(merged))

	for len(sc.rows) < len(merged) {
		sc.rows = append(sc.rows, nil)
	}
	vals := sc.rows[:len(merged)]
	read := driver.Op{Kind: driver.OpRead, Batched: true, Reqs: merged, Rows: vals}
	if err := driver.Apply(svc.ch, p, &read); err != nil {
		for _, r := range batch {
			r.err = err
		}
		return
	}
	for i, r := range batch {
		lo, n := sc.spans[i][0], sc.spans[i][1]
		if r.op.Kind == driver.OpRegRead {
			w := sc.where[lo]
			r.op.Val = vals[w.idx][w.off]
			continue
		}
		if r.op.Rows == nil {
			r.op.Rows = make([][]uint64, n)
		}
		for j := 0; j < n; j++ {
			w := sc.where[lo+j]
			r.op.Rows[j] = append(r.op.Rows[j][:0], vals[w.idx][w.off:w.off+w.n]...)
		}
	}
}

// complete finishes one request: record wait/service time on its
// session, mark it done, and wake its waiter.
func (svc *Service) complete(r *request, start, end sim.Time) {
	st := &r.sess.stats
	st.Completed++
	if r.err != nil {
		st.Failed++
	}
	wait := start.Sub(r.enqueuedAt)
	st.TotalWait += wait
	if wait > st.MaxWait {
		st.MaxWait = wait
	}
	st.TotalService += end.Sub(start)
	r.done = true
	if r.waiter != nil {
		r.waiter.Unpark()
	}
}

// readSlot locates one original range inside the merged request list.
type readSlot struct {
	idx int // merged range index
	off int // cell offset within the merged range
	n   int // cell count
}

// merge folds overlapping or adjacent ranges of sc.all on the same
// register into unions, returning the merged list and leaving in
// sc.where, for each original range, where its values live in the
// merged results. Ranges on distinct registers or with gaps between them
// stay separate — merging across a gap would DMA cells nobody asked for.
func (sc *readScratch) merge() []driver.ReadReq {
	reqs := sc.all
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
