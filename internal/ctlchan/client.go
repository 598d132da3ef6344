package ctlchan

import (
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ClientOptions tunes the agent-side endpoint of the control channel.
type ClientOptions struct {
	// Session identifies this client to the server; Epoch is its
	// election epoch, stamped on every request for fencing.
	Session uint32
	Epoch   uint64

	// RTO is the initial retransmission timeout; each retransmit re-arms
	// at RTO plus a full-jitter backoff draw capped at MaxRTO. Default:
	// 2 link RTTs plus a fixed service allowance (the server executes a
	// request on its driver before replying, so the response takes wire +
	// execution + wire — an RTO of bare wire time retransmits spuriously
	// on a perfectly healthy channel). MaxRTO defaults to 8x RTO.
	RTO    time.Duration
	MaxRTO time.Duration
	// OpDeadline bounds how long one operation retransmits before the
	// client gives up and reports driver.ErrChannelDegraded. Default
	// 5x RTO — roughly four retransmission opportunities.
	OpDeadline time.Duration
	// Window bounds in-flight requests; excess callers queue FIFO.
	// Default 8.
	Window int

	// Meta, when set, serves the instantaneous wiring accessors of
	// driver.Channel — Switch() and Stats() — which are simulation
	// plumbing, not control messages, and do not cross the wire.
	Meta driver.Channel
}

// DegradeCause classifies why an operation hit its deadline, from the
// client's view of the wire at expiry time. It is evidence, not truth —
// a partition can heal between the drops and the deadline — but it is
// the distinction a coordinator needs between "that switch crashed" and
// "my own channel is bad".
type DegradeCause uint8

const (
	// CauseNone: the channel is not degraded.
	CauseNone DegradeCause = iota
	// CauseLoss: the wire looked up the whole time; frames (or their
	// responses) were presumably eaten by loss.
	CauseLoss
	// CausePartition: the link reported partitioned at expiry.
	CausePartition
	// CausePeerDead: the remote endpoint is marked dead — the peer's
	// process crashed, the wire itself is fine.
	CausePeerDead
)

// String names the cause for reports.
func (dc DegradeCause) String() string {
	switch dc {
	case CauseLoss:
		return "loss"
	case CausePartition:
		return "partition"
	case CausePeerDead:
		return "peer-dead"
	default:
		return "none"
	}
}

// ClientStats counts client-side channel behavior.
type ClientStats struct {
	// Ops counts operations issued through the client.
	Ops uint64
	// Sent counts frames transmitted (first sends and retransmits).
	Sent uint64
	// Retransmits counts re-sends after an un-acked timeout.
	Retransmits uint64
	// Timeouts counts operations that hit OpDeadline and were abandoned.
	Timeouts uint64
	// LateResponses counts responses that arrived after their operation
	// was already resolved (duplicate or post-abandon arrivals).
	LateResponses uint64
	// WindowWaits counts callers that had to queue for a window slot.
	WindowWaits uint64
	// BadFrames counts undecodable response frames.
	BadFrames uint64
	// FencedOps counts operations refused because the session is fenced.
	FencedOps uint64
	// DegradedLoss, DegradedPartition, and DegradedPeerDead split
	// Timeouts by classified cause; LastDegradedCause is the most recent
	// classification (it persists across recovery for post-mortems —
	// DegradedCause() is the live view).
	DegradedLoss      uint64
	DegradedPartition uint64
	DegradedPeerDead  uint64
	LastDegradedCause DegradeCause
}

// call is one in-flight request. Calls are recycled through
// Client.free and embed their request, response and backoff, so an
// operation allocates nothing. While a call is live its request's op is a
// copy of the caller's — aliasing the caller's slices, who is parked, so
// they are stable across retransmits — and, for a batched read, its
// response rows are the caller's; release drops every such reference.
type call struct {
	seq      uint64
	req      request
	waiter   *sim.Proc
	bo       faults.Backoff
	timer    sim.EventID
	armed    bool
	lastTx   sim.Time
	deadline sim.Time

	done      bool
	abandoned bool // past deadline, in MSL quarantine, no longer retransmitting
	resp      response
	failErr   error
}

// Client is the agent-side endpoint: a driver.Channel (the embedded
// Adapter, over Do) whose every operation becomes a sequenced request
// frame on a netsim.Link, with
// retransmission, in-flight windowing, idempotent delivery (via server
// dedup keyed on the seq), epoch fencing, and an MSL quarantine before
// any mutation is reported as possibly-lost.
//
// The client assumes the single-threaded simulator discipline of the
// rest of the tree: all calls come from simulator processes, and the
// agent issues its mutations sequentially (one outstanding mutation per
// agent process), which is what makes the quarantine argument airtight
// — by the time a mutation's failure is reported, no copy of it remains
// in flight, so a subsequent audit read observes its final effect.
type Client struct {
	driver.Adapter
	sim  *sim.Simulator
	link *netsim.Link
	side int
	opts ClientOptions

	nextSeq  uint64
	pending  map[uint64]*call
	inFlight int
	waitq    []*sim.Proc

	// Per-call plumbing, owned by the client and reused: the call
	// freelist, the retransmission-timer callback (bound once), the
	// encode buffer (the link copies on Send), the name table of decoded
	// responses, and the response scratch for frames no call is waiting
	// on.
	free    []*call
	timerFn func(any)
	txBuf   []byte
	names   wire.Names
	late    response

	// degraded latches true when an op times out and clears on the next
	// response (late ones included) — the channel-health signal the
	// agent's staleness budget consumes.
	degraded bool
	// fenced latches when the server rejects a mutation for a stale
	// epoch; every later mutation fails fast with ErrFenced.
	fenced bool
	// lastCause is the classification of the most recent timeout.
	lastCause DegradeCause

	stats ClientStats
}

var (
	_ driver.Channel     = (*Client)(nil)
	_ driver.RangeReader = (*Client)(nil)
)

// rtoServiceAllowance is the server-side execution budget folded into
// the default RTO: a request is not late until wire + driver-op + wire
// time has passed, and driver table/register operations cost single-digit
// microseconds each, plus queueing behind other sessions' requests on
// the serialized control CPU.
const rtoServiceAllowance = 20 * time.Microsecond

// NewClient opens the client endpoint on side of link. The opposite
// side is expected to be served by a Server with a matching Attach.
func NewClient(s *sim.Simulator, link *netsim.Link, side int, opts ClientOptions) *Client {
	if opts.RTO <= 0 {
		opts.RTO = 4*link.Delay() + rtoServiceAllowance
	}
	if opts.MaxRTO <= 0 {
		opts.MaxRTO = 8 * opts.RTO
	}
	if opts.OpDeadline <= 0 {
		opts.OpDeadline = 5 * opts.RTO
	}
	if opts.Window <= 0 {
		opts.Window = 8
	}
	c := &Client{
		sim: s, link: link, side: side, opts: opts,
		nextSeq: 1, pending: make(map[uint64]*call), names: make(wire.Names),
	}
	// Switch() and Stats() are simulation plumbing, not control messages:
	// they go to opts.Meta without crossing the wire.
	c.Adapter = driver.NewAdapter(c.Do, opts.Meta)
	c.timerFn = func(arg any) { c.onTimer(arg.(*call)) }
	link.SetRecv(side, c.onFrame)
	return c
}

// RTT returns the link's fault-free round-trip time — the figure
// watchdog and deadline budgets should scale from.
func (c *Client) RTT() time.Duration { return 2 * c.link.Delay() }

// Degraded reports whether the most recent channel evidence is bad: an
// operation timed out and no response has arrived since.
func (c *Client) Degraded() bool { return c.degraded }

// DegradedCause classifies the current degradation: CauseNone while the
// channel is healthy, otherwise the wire's state when the most recent
// operation expired (loss, partition, or peer dead).
func (c *Client) DegradedCause() DegradeCause {
	if !c.degraded {
		return CauseNone
	}
	return c.lastCause
}

// classifyDegrade reads the wire at deadline expiry and picks the most
// specific explanation: a dead peer beats a partition beats plain loss.
func (c *Client) classifyDegrade() DegradeCause {
	switch {
	case c.link.PeerDown(1 - c.side):
		c.stats.DegradedPeerDead++
		return CausePeerDead
	case c.link.Partitioned():
		c.stats.DegradedPartition++
		return CausePartition
	default:
		c.stats.DegradedLoss++
		return CauseLoss
	}
}

// Fenced reports whether the session has been fenced by a higher epoch.
func (c *Client) Fenced() bool { return c.fenced }

// ChanStats returns a copy of the client counters. (Stats() is taken by
// the driver.Channel interface for switch-op accounting.)
func (c *Client) ChanStats() ClientStats { return c.stats }

// ackFloor is the lowest unresolved seq — everything below it is
// settled client-side. Piggybacked on every frame so the server can
// garbage-collect its response cache and reject ghost mutations.
func (c *Client) ackFloor() uint64 {
	if len(c.pending) == 0 {
		return c.nextSeq
	}
	min := ^uint64(0)
	for seq := range c.pending {
		if seq < min {
			min = seq
		}
	}
	return min
}

// transmit (re-)encodes and sends a call's frame with a fresh ack.
func (c *Client) transmit(cl *call) {
	cl.req.Ack = c.ackFloor()
	cl.lastTx = c.sim.Now()
	c.stats.Sent++
	c.txBuf = appendRequest(c.txBuf[:0], &cl.req)
	c.link.Send(c.side, c.txBuf)
}

// arm schedules the call's retransmission timer: RTO plus a full-jitter
// draw, so clients that tripped over the same loss burst or partition
// heal do not retransmit in lockstep.
func (c *Client) arm(cl *call) {
	cl.armed = true
	cl.timer = c.sim.ScheduleCall(c.opts.RTO+cl.bo.Next(), c.timerFn, cl)
}

// onTimer fires when a call's retransmission timer expires.
func (c *Client) onTimer(cl *call) {
	if cl.done || cl.abandoned {
		return
	}
	cl.armed = false
	now := c.sim.Now()
	if now >= cl.deadline {
		c.stats.Timeouts++
		c.degraded = true
		c.lastCause = c.classifyDegrade()
		c.stats.LastDegradedCause = c.lastCause
		if cl.req.op.Kind.Mutating() {
			// Ambiguous abandon: the request (or only its ack) may be
			// lost. Quarantine until every copy we ever sent is off the
			// wire, so the failure we report is stable: either a
			// response completes the call during quarantine, or no copy
			// exists anywhere and an audit read is definitive.
			cl.abandoned = true
			quarantineEnd := cl.lastTx.Add(c.link.MaxDelay())
			if now >= quarantineEnd {
				c.fail(cl, c.degradedErr(cl))
				return
			}
			// By then the call may have completed and its record been
			// recycled for another operation: only a call still pending
			// under this seq is ours to fail.
			seq := cl.seq
			c.sim.At(quarantineEnd, func() {
				if c.pending[seq] == cl {
					c.fail(cl, c.degradedErr(cl))
				}
			})
			return
		}
		// Reads carry no risk of a lost update: fail immediately.
		c.fail(cl, c.degradedErr(cl))
		return
	}
	c.stats.Retransmits++
	c.transmit(cl)
	c.arm(cl)
}

func (c *Client) degradedErr(cl *call) error {
	return fmt.Errorf("ctlchan: %s seq %d: no response within %v: %w",
		cl.req.op.Kind, cl.seq, c.opts.OpDeadline, driver.ErrChannelDegraded)
}

// onFrame handles a response frame arriving from the server. The frame
// is the link's and is gone when onFrame returns, so it is decoded here:
// into the waiting call's own response (which is how a batched read
// lands in its caller's rows), or into scratch when no call is waiting —
// a call that has returned never has its rows written again.
func (c *Client) onFrame(msg []byte) {
	var cl *call
	if seq, ok := responseSeq(msg); ok {
		cl = c.pending[seq]
	}
	resp := &c.late
	if cl != nil {
		resp = &cl.resp
	}
	if err := decodeResponse(resp, msg, c.names); err != nil {
		c.stats.BadFrames++
		return
	}
	if cl == nil {
		// Resolved already (duplicate response, or a ghost's answer
		// arriving after abandon). Still a proof of life for the wire.
		c.stats.LateResponses++
		c.degraded = false
		return
	}
	cl.done = true
	c.degraded = false
	if cl.armed {
		c.sim.Cancel(cl.timer)
		cl.armed = false
	}
	c.resolve(cl)
	cl.waiter.Unpark()
}

// fail resolves a call with a local error (deadline expiry).
func (c *Client) fail(cl *call, err error) {
	cl.done = true
	cl.failErr = err
	if cl.armed {
		c.sim.Cancel(cl.timer)
		cl.armed = false
	}
	c.resolve(cl)
	cl.waiter.Unpark()
}

// resolve releases a finished call's bookkeeping: pending entry and
// window slot, waking the next queued caller if any.
func (c *Client) resolve(cl *call) {
	delete(c.pending, cl.seq)
	c.inFlight--
	if len(c.waitq) > 0 {
		next := c.waitq[0]
		c.waitq = c.waitq[1:]
		next.Unpark()
	}
}

// newCall takes a call record for one operation.
func (c *Client) newCall() *call {
	if n := len(c.free); n > 0 {
		cl := c.free[n-1]
		c.free = c.free[:n-1]
		return cl
	}
	return &call{bo: *faults.NewBackoff(c.sim.Rand(), c.opts.RTO, c.opts.MaxRTO)}
}

// release recycles a finished call, dropping its references to the
// caller's arguments and to any result the caller now owns.
func (c *Client) release(cl *call) {
	*cl = call{bo: cl.bo}
	c.free = append(c.free, cl)
}

// roundTrip runs one request to completion: admission, transmit,
// retransmit until response or deadline, classify. On success the
// response is in cl.resp.
func (c *Client) roundTrip(p *sim.Proc, cl *call) error {
	req := &cl.req
	c.stats.Ops++
	if c.fenced && req.op.Kind.Mutating() {
		c.stats.FencedOps++
		return fmt.Errorf("ctlchan: %s refused: %w", req.op.Kind, ErrFenced)
	}
	for c.inFlight >= c.opts.Window {
		c.stats.WindowWaits++
		c.waitq = append(c.waitq, p)
		p.Park()
	}
	c.inFlight++

	req.Kind = frameRequest
	req.Session = c.opts.Session
	req.Epoch = c.opts.Epoch
	req.Seq = c.nextSeq
	c.nextSeq++

	cl.seq, cl.waiter = req.Seq, p
	cl.bo.Reset()
	cl.deadline = c.sim.Now().Add(c.opts.OpDeadline)
	c.pending[cl.seq] = cl
	c.transmit(cl)
	c.arm(cl)
	p.Park()

	if cl.failErr != nil {
		return cl.failErr
	}
	switch resp := &cl.resp; resp.Status {
	case statusOK:
		return nil
	case statusTransient:
		return fmt.Errorf("ctlchan: remote %s: %s: %w",
			req.op.Kind, resp.ErrMsg, driver.ErrTransient)
	case statusFenced:
		c.fenced = true
		c.stats.FencedOps++
		return fmt.Errorf("ctlchan: %s seq %d: %w", req.op.Kind, cl.seq, ErrFenced)
	case statusStale:
		// A live call answered stale means the server's floor passed our
		// seq — only possible through frame corruption or a server bug.
		// Surface as degraded: the op's fate is unknown.
		return fmt.Errorf("ctlchan: %s seq %d: stale-rejected: %w",
			req.op.Kind, cl.seq, driver.ErrChannelDegraded)
	default:
		return fmt.Errorf("ctlchan: remote %s: %s", req.op.Kind, resp.ErrMsg)
	}
}

// Do sends one operation over the wire and blocks until its response or
// deadline: the whole synchronous driver.Channel surface. A batched
// read's response decodes straight into the op's rows (one per range,
// refilled in place), so the deployed stack's poll allocates nothing
// here. An unbatched read is one request frame per range — the baseline
// pays a full channel round trip per range here just as it pays per-op
// channel latency below.
func (c *Client) Do(p *sim.Proc, op *driver.Op) error {
	if op.Kind == driver.OpRead && !op.Batched {
		return driver.PerRange(op, func(sub *driver.Op) error { return c.Do(p, sub) })
	}
	cl := c.newCall()
	cl.req.op = *op
	if op.Kind == driver.OpRead {
		cl.resp.Vals = op.Rows[:0]
	}
	err := c.roundTrip(p, cl)
	if err == nil {
		err = cl.resp.deliver(op)
	}
	c.release(cl)
	return err
}

// Memoize ships as a fire-and-forget datagram: it is a hint, losing one
// costs a future lookup, not correctness, so it gets no retransmission.
func (c *Client) Memoize(table string, handle rmt.EntryHandle) {
	r := request{
		Kind: frameDatagram, Session: c.opts.Session, Epoch: c.opts.Epoch, Ack: c.ackFloor(),
		op: driver.Op{Kind: opMemoize, Table: table, Handle: handle},
	}
	c.txBuf = appendRequest(c.txBuf[:0], &r)
	c.link.Send(c.side, c.txBuf)
}
