package ctlchan

import (
	"fmt"
	"time"
	"unsafe"

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
	// election epoch, stamped on every request and reported by the
	// server (the ctlplane election fences, not the epoch).
	Session uint32
	Epoch   uint64

	// RTO is the initial retransmission timeout and its ceiling. Once an
	// op kind has a round trip measured, a single op of that kind times
	// out at the kind's estimate instead, never later than RTO; a run of
	// several ops always starts from RTO. Each retransmit re-arms at the
	// call's RTO plus a full-jitter backoff draw capped at 8x that RTO.
	// Default: 2 link RTTs plus a fixed service allowance (the server
	// executes a request on its driver before replying, so the response
	// takes wire + execution + wire — an RTO of bare wire time
	// retransmits spuriously on a perfectly healthy channel).
	RTO time.Duration
	// OpDeadline bounds how long one operation retransmits before the
	// client gives up and reports driver.ErrChannelDegraded. Default
	// 5x RTO — roughly four retransmission opportunities.
	//
	// A run of n ops stretches both by its extra service time: the RTO
	// by n-1 service allowances, and the deadline in proportion, so a run
	// on a clean link is never retransmitted and gets as many
	// retransmission opportunities as one op.
	OpDeadline time.Duration

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

// ClientStats counts client-side channel behavior.
type ClientStats struct {
	// Ops counts operations issued through the client, each op of a run
	// once.
	Ops uint64
	// Sent counts frames transmitted (first sends and retransmits); a run
	// is one frame.
	Sent uint64
	// Retransmits counts re-sends after an un-acked timeout.
	Retransmits uint64
	// Timeouts counts frames that hit their deadline and were abandoned.
	Timeouts uint64
	// LateResponses counts responses that arrived after their operation
	// was already resolved (duplicate or post-abandon arrivals).
	LateResponses uint64
	// WindowWaits counts callers that found a call outstanding and had to
	// wait their turn. (The name is from when the client had a window;
	// bench/ reads it.)
	WindowWaits uint64
	// BadFrames counts undecodable response frames.
	BadFrames uint64
	// FencedOps counts operations refused because the session is fenced
	// (every op of a refused run).
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

// call is the record of one request. The client has a single one, reused
// by every run and embedding its request, response and backoff, so a run
// allocates nothing. While a run owns it its request's ops are copies of
// the caller's — aliasing the caller's slices, who is parked, so they are
// stable across retransmits — and, for a batched read, its result's rows
// are the caller's; release drops every such reference.
type call struct {
	seq      uint64
	req      request
	waiter   *sim.Proc
	bo       faults.Backoff
	timer    sim.EventID
	armed    bool
	lastTx   sim.Time
	retx     bool          // sent more than once: its response times no round trip
	rto      time.Duration // the measured RTO, or the client's stretched to this run's length
	deadline sim.Time

	done      bool
	abandoned bool // past deadline, in MSL quarantine, no longer retransmitting
	resp      response
	failErr   error
}

// Client is the agent-side endpoint: a driver.Channel (the embedded
// Adapter, over Do) whose every run of operations (DoRun; Do is a run of
// one) becomes a sequenced request frame on a netsim.Link, with
// retransmission, idempotent delivery (via server dedup keyed on the
// seq), fencing, and an MSL quarantine before any mutation is
// reported as possibly-lost. The channel is stop-and-wait: one request is
// outstanding at a time, and a caller that arrives meanwhile waits its
// turn.
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

	nextSeq uint64
	// call is the one call record: owned by a single operation from
	// acquire to release (busy), and awaiting its response — sent, not yet
	// resolved — exactly while cur points at it. Callers that find it busy
	// park in waitq and are handed it in arrival order.
	call  call
	busy  bool
	cur   *call
	waitq []*sim.Proc

	// Per-call plumbing, owned by the client and reused: the
	// retransmission-timer callback (bound once), the encode buffer (the
	// link copies on Send), the name table of decoded responses, and the
	// response scratch for frames no call is waiting on.
	timerFn func()
	txBuf   []byte
	names   wire.Names
	late    response

	// degraded latches true when an op times out and clears on the next
	// response (late ones included) — the channel-health signal the
	// agent's staleness budget consumes.
	degraded bool
	// fenced latches when the server answers a mutation as fenced (the
	// ctlplane election refused it); every later mutation fails fast
	// with ErrFenced.
	fenced bool
	// lastCause is the classification of the most recent timeout.
	lastCause DegradeCause

	// rtt is the round-trip estimate of each op kind, which times a
	// single op's retransmissions once the kind has a sample.
	rtt [driver.NumOpKinds]rttEstimate

	stats ClientStats
}

// rttEstimate is one op kind's round-trip estimate (RFC 6298): the
// smoothed RTT and its mean deviation, sampled only from single-op calls
// answered without a retransmit, whose response can only be to the one
// frame sent (Karn's rule).
type rttEstimate struct {
	srtt, rttvar time.Duration
	sampled      bool
}

// sample folds one measured round trip r into the estimate, with RFC
// 6298's gains: rttvar = 3/4 rttvar + 1/4 |srtt - r|, then
// srtt = 7/8 srtt + 1/8 r.
func (e *rttEstimate) sample(r time.Duration) {
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = r, r/2, true
		return
	}
	d := e.srtt - r
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + r) / 8
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
	if opts.OpDeadline <= 0 {
		opts.OpDeadline = 5 * opts.RTO
	}
	c := &Client{
		sim: s, link: link, side: side, opts: opts,
		nextSeq: 1, names: make(wire.Names),
		call: call{bo: *faults.NewBackoff(s.Rand(), opts.RTO, 8*opts.RTO)},
	}
	// Switch() and Stats() are simulation plumbing, not control messages:
	// they go to opts.Meta without crossing the wire.
	c.Adapter = driver.NewAdapter(c.Do, opts.Meta)
	c.timerFn = c.onTimer
	link.SetRecv(side, c.onFrame)
	return c
}

// RTT returns the link's fault-free round-trip time — the figure
// watchdog and deadline budgets should scale from.
func (c *Client) RTT() time.Duration { return 2 * c.link.Delay() }

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

// ChanStats returns a copy of the client counters. (Stats() is taken by
// the driver.Channel interface for switch-op accounting.)
func (c *Client) ChanStats() ClientStats { return c.stats }

// Faults counts the retransmits and timeouts so far; the agent's
// channel_clean() reaction builtin compares it between calls.
func (c *Client) Faults() uint64 { return c.stats.Retransmits + c.stats.Timeouts }

// ackFloor is the lowest unresolved seq — everything below it is
// settled client-side. Piggybacked on every frame so the server can
// garbage-collect its response cache and reject ghost mutations.
func (c *Client) ackFloor() uint64 {
	if c.cur != nil {
		return c.cur.seq
	}
	return c.nextSeq
}

// transmit (re-)encodes and sends a call's frame with a fresh ack.
func (c *Client) transmit(cl *call) {
	cl.req.Ack = c.ackFloor()
	cl.lastTx = c.sim.Now()
	c.stats.Sent++
	c.txBuf = appendRequest(c.txBuf[:0], &cl.req)
	c.link.Send(c.side, c.txBuf)
}

// arm schedules the call's retransmission timer after d: the bare RTO
// for the first transmit, RTO plus a full-jitter draw for every
// retransmit, so clients that tripped over the same loss burst or
// partition heal do not retransmit in lockstep.
func (c *Client) arm(cl *call, d time.Duration) {
	cl.armed = true
	cl.timer = c.sim.Schedule(d, c.timerFn)
}

// onTimer fires when the call's retransmission timer expires.
func (c *Client) onTimer() {
	cl := &c.call
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
		if mutating(cl.req.ops) > 0 {
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
			// By then the call may have completed and the record be
			// serving another operation: only a call still outstanding
			// under this seq is ours to fail.
			seq := cl.seq
			c.sim.At(quarantineEnd, func() {
				if c.cur != nil && c.cur.seq == seq {
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
	cl.retx = true
	c.transmit(cl)
	c.arm(cl, cl.rto+cl.bo.Next())
}

func (c *Client) degradedErr(cl *call) error {
	_, deadline := c.runTimers(len(cl.req.ops))
	return fmt.Errorf("ctlchan: %s seq %d: no response within %v: %w",
		runName(cl.req.ops), cl.seq, deadline, driver.ErrChannelDegraded)
}

// onFrame handles a response frame arriving from the server. The frame
// is the link's and is gone when onFrame returns, so it is decoded here:
// into the waiting call's own response (which is how a batched read
// lands in its caller's rows), or into scratch when no call is waiting —
// a call that has returned never has its rows written again.
func (c *Client) onFrame(msg []byte) {
	var cl *call
	if seq, ok := responseSeq(msg); ok && c.cur != nil && c.cur.seq == seq {
		cl = c.cur
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
	if e := c.estimate(cl.req.ops); e != nil && !cl.retx {
		e.sample(c.sim.Now().Sub(cl.lastTx))
	}
	if cl.armed {
		c.sim.Cancel(cl.timer)
		cl.armed = false
	}
	c.cur = nil
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
	c.cur = nil
	cl.waiter.Unpark()
}

// acquire takes the call record for one operation: at once when it is
// free, otherwise after parking until release hands it over.
func (c *Client) acquire(p *sim.Proc) *call {
	if c.busy {
		c.stats.WindowWaits++
		c.waitq = append(c.waitq, p)
		p.Park()
	}
	c.busy = true
	return &c.call
}

// release clears the finished call, dropping its references to the
// caller's arguments and to any result the caller now owns, and hands the
// record to the longest-waiting caller, if there is one. It runs on the
// finished caller's process, once that has taken its result out of the
// record; waking the next caller any earlier would let it overwrite it.
func (c *Client) release() {
	// The op and result arrays are kept for the next run, emptied: no
	// slot may still point at a returned caller's arguments or rows.
	ops, res := c.call.req.ops, c.call.resp.Results
	clear(ops)
	clear(res[:cap(res)])
	c.call = call{bo: c.call.bo, req: request{ops: ops[:0]}, resp: response{Results: res[:0]}}
	if len(c.waitq) == 0 {
		c.busy = false
		return
	}
	next := c.waitq[0]
	c.waitq = c.waitq[1:]
	next.Unpark()
}

// runTimers stretches the client's RTO and deadline to a run of n ops:
// each op past the first adds one service allowance to the RTO, and the
// deadline keeps its ratio to the RTO. A run of one gets them as set.
func (c *Client) runTimers(n int) (rto, deadline time.Duration) {
	rto = c.opts.RTO + time.Duration(n-1)*rtoServiceAllowance
	return rto, time.Duration(int64(c.opts.OpDeadline) * int64(rto) / int64(c.opts.RTO))
}

// estimate is the round-trip estimate that times a call of ops: its
// kind's for a single op, nil for a run, whose service time grows with
// its length.
func (c *Client) estimate(ops []driver.Op) *rttEstimate {
	if len(ops) != 1 || ops[0].Kind >= driver.NumOpKinds {
		return nil
	}
	return &c.rtt[ops[0].Kind]
}

// measuredRTO is the retransmission timeout an estimate gives: the
// smoothed RTT plus a margin of four mean deviations, at least one
// fault-free RTT and at least the link's skew bound. The margin keeps a
// response the wire only delayed from being asked for again; without
// it a deterministic RTT would drive the deviation to zero and the timer
// to the response's own instant. The configured RTO is the ceiling.
func (c *Client) measuredRTO(e *rttEstimate) time.Duration {
	margin := max(4*e.rttvar, c.RTT(), c.link.MaxDelay()-c.link.Delay())
	return min(e.srtt+margin, c.opts.RTO)
}

// roundTrip runs the request in cl, a copy of ops, to completion:
// transmit, retransmit until response or deadline, then hand each applied
// op of ops its result. It returns how many ops applied and the error of
// the op that stopped the run.
func (c *Client) roundTrip(p *sim.Proc, cl *call, ops []driver.Op) (int, error) {
	req := &cl.req
	req.Kind = frameRequest
	req.Session = c.opts.Session
	req.Epoch = c.opts.Epoch
	req.Seq = c.nextSeq
	c.nextSeq++

	cl.seq, cl.waiter = req.Seq, p
	rto, deadline := c.runTimers(len(req.ops))
	cl.rto, cl.deadline = rto, c.sim.Now().Add(deadline)
	// The backoff scales from the RTO a measured call starts from; a run,
	// or an op whose kind has no sample yet, keeps the configured one.
	base := c.opts.RTO
	if e := c.estimate(req.ops); e != nil && e.sampled {
		cl.rto = c.measuredRTO(e)
		base = cl.rto
	}
	cl.bo.Base, cl.bo.Max = base, 8*base
	cl.bo.Reset()
	c.cur = cl
	c.transmit(cl)
	c.arm(cl, cl.rto)
	p.Park()

	if cl.failErr != nil {
		return 0, cl.failErr
	}
	resp := &cl.resp
	n := len(resp.Results)
	if n > len(ops) || (n == len(ops)) != (resp.Status == statusOK) {
		return 0, fmt.Errorf("ctlchan: %s seq %d: answered %d applied with status %d", runName(ops), cl.seq, n, resp.Status)
	}
	for i := 0; i < n; i++ {
		if err := resp.Results[i].deliver(&ops[i]); err != nil {
			return i, err
		}
	}
	if n == len(ops) {
		return n, nil
	}
	kind := ops[n].Kind
	switch resp.Status {
	case statusTransient:
		return n, fmt.Errorf("ctlchan: remote %s: %s: %w", kind, resp.ErrMsg, driver.ErrTransient)
	case statusFenced:
		c.fenced = true
		c.stats.FencedOps += uint64(len(ops) - n)
		return n, fmt.Errorf("ctlchan: %s seq %d: %w", kind, cl.seq, ErrFenced)
	case statusStale:
		// A live call answered stale means the server's floor passed our
		// seq — only possible through frame corruption or a server bug.
		// Surface as degraded: the op's fate is unknown.
		return n, fmt.Errorf("ctlchan: %s seq %d: stale-rejected: %w", kind, cl.seq, driver.ErrChannelDegraded)
	default:
		return n, fmt.Errorf("ctlchan: remote %s: %s", kind, resp.ErrMsg)
	}
}

// DoRun sends ops as one run — one frame, one sequence number, one dedup
// entry — and blocks until its response or deadline. The server applies
// the ops in order and stops at the first that fails, so the run takes
// effect all-or-prefix: applied is the length of the prefix that did,
// each op of it holding its result, and err is the error of the op that
// stopped the run (nil when none did). A deadline expiry reports 0 and
// driver.ErrChannelDegraded: any prefix may have applied, and once the
// error surfaces an audit read shows which.
//
// A range read's result decodes straight into the op's rows (one per
// range, refilled in place), so the deployed stack's poll allocates
// nothing here.
func (c *Client) DoRun(p *sim.Proc, ops []driver.Op) (applied int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	c.stats.Ops += uint64(len(ops))
	if c.fenced && mutating(ops) > 0 {
		c.stats.FencedOps += uint64(len(ops))
		return 0, fmt.Errorf("ctlchan: %s refused: %w", runName(ops), ErrFenced)
	}
	cl := c.acquire(p)
	cl.req.ops = append(cl.req.ops, ops...)
	for i := range ops {
		var rows [][]uint64
		if ops[i].Kind == driver.OpRead {
			rows = ops[i].Rows[:0]
		}
		cl.resp.Results = append(cl.resp.Results, result{Vals: rows})
	}
	applied, err = c.roundTrip(p, cl, ops)
	c.release()
	return applied, err
}

// Do sends one operation as a run of one: the whole synchronous
// driver.Channel surface.
func (c *Client) Do(p *sim.Proc, op *driver.Op) error {
	_, err := c.DoRun(p, unsafe.Slice(op, 1))
	return err
}

// Memoize ships as a fire-and-forget datagram: it is a hint, losing one
// costs a future lookup, not correctness, so it gets no retransmission.
func (c *Client) Memoize(table string, handle rmt.EntryHandle) {
	r := request{
		Kind: frameDatagram, Session: c.opts.Session, Epoch: c.opts.Epoch, Ack: c.ackFloor(),
		ops: []driver.Op{{Kind: opMemoize, Table: table, Handle: handle}},
	}
	c.txBuf = appendRequest(c.txBuf[:0], &r)
	c.link.Send(c.side, c.txBuf)
}
