package ctlchan

import (
	"cmp"
	"errors"
	"slices"

	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Server is the switch-side endpoint of the control channel: it decodes
// request frames arriving on attached links, executes them on each
// session's inner driver channel, and replies. One dispatcher process
// serves all sessions, so execution is serialized exactly like the
// single control CPU it models.
//
// The server is where at-most-once lands: executed responses are cached
// by (session, seq) and retransmits are answered from the cache, while
// mutations whose seq has fallen below the session's resolved floor —
// ghost copies of operations the client already abandoned — are
// rejected without executing. Epoch fencing is also enforced here (and
// again by the ctlplane service below, when the inner channel is a
// ctlplane session): a mutation carrying an epoch lower than the
// highest the server has seen is refused.
type Server struct {
	sim      *sim.Simulator
	sessions map[uint32]*serverSession

	// queue holds frames awaiting the dispatcher, consumed from head. An
	// arriving frame is the link's only until the receive callback
	// returns, so it is copied into a buffer from bufs, the freelist that
	// also supplies the dedup caches' response buffers.
	queue []inbound
	head  int
	bufs  [][]byte
	disp  *sim.Proc
	idle  bool

	// Dispatcher scratch, reused for every frame: the response under
	// construction and the name table of decoded requests.
	resp  response
	names wire.Names

	// epoch is the highest election epoch seen on any session; mutations
	// below it are fenced. epochAt records when it last rose — the
	// fencing point a split-brain audit compares mutation times against.
	epoch   uint64
	epochAt sim.Time

	stats ServerStats
}

type inbound struct {
	sess *serverSession
	msg  []byte
}

type serverSession struct {
	id    uint32
	epoch uint64
	link  *netsim.Link
	side  int // the server's side of the link; replies go out here
	ch    driver.Channel

	// floor is the client's lowest unresolved seq: responses below it
	// are garbage-collected, and mutating requests below it are stale.
	floor uint64
	// cache holds encoded responses by seq for retransmit replay. Each
	// response is encoded once, into a buffer the cache owns from then
	// until the floor passes its seq.
	cache map[uint64][]byte

	// req is the decoded form of the frame in hand and rows the result
	// matrix of its batched read; both are refilled in place per frame.
	req  request
	rows [][]uint64

	executed       uint64
	mutations      uint64
	lastMutationAt sim.Time
}

// ServerStats counts server-side frame outcomes.
type ServerStats struct {
	// Frames counts frames received (including duplicates and garbage).
	Frames uint64
	// BadFrames counts frames that failed to decode.
	BadFrames uint64
	// Executed counts requests executed on an inner channel.
	Executed uint64
	// MutationsExecuted counts the mutating subset of Executed — the
	// number the at-most-once property is asserted against.
	MutationsExecuted uint64
	// DedupHits counts retransmits answered from the response cache
	// without re-executing.
	DedupHits uint64
	// FencedWrites counts mutations rejected for carrying a stale epoch.
	FencedWrites uint64
	// StaleWrites counts mutations rejected for a seq below the
	// session's resolved floor.
	StaleWrites uint64
	// Epoch is the highest election epoch seen; EpochBumpedAt is when it
	// last rose.
	Epoch         uint64
	EpochBumpedAt sim.Time
}

// SessionInfo is a snapshot of one attached session's counters.
type SessionInfo struct {
	ID             uint32
	Epoch          uint64
	Executed       uint64
	Mutations      uint64
	LastMutationAt sim.Time
}

// NewServer starts a control-channel server. Its dispatcher process
// spawns immediately and parks until the first frame arrives.
func NewServer(s *sim.Simulator) *Server {
	srv := &Server{sim: s, sessions: make(map[uint32]*serverSession), names: make(wire.Names)}
	srv.disp = s.Spawn("ctlchan-server", srv.run)
	return srv
}

// Attach binds a session to the server: frames arriving at side of link
// are decoded and executed on ch (typically a ctlplane session opened
// with ElectionID == epoch, so demotion fences writes below this layer
// too). Replies are sent back out the same side. ch is handed slices of
// the session's decoded request, which the next frame overwrites; like
// every driver.Channel it copies what it keeps.
func (srv *Server) Attach(link *netsim.Link, side int, sessionID uint32, epoch uint64, ch driver.Channel) {
	sess := &serverSession{
		id: sessionID, epoch: epoch, link: link, side: side, ch: ch,
		cache: make(map[uint64][]byte),
	}
	srv.sessions[sessionID] = sess
	if epoch > srv.epoch {
		srv.epoch = epoch
		srv.epochAt = srv.sim.Now()
	}
	link.SetRecv(side, func(msg []byte) {
		srv.enqueue(sess, msg)
		srv.kick()
	})
}

// enqueue copies an arriving frame into a recycled buffer and queues it.
// The consumed prefix of the queue is reclaimed before the slice would
// grow, so the queue's footprint tracks the deepest backlog, not the
// frame count.
func (srv *Server) enqueue(sess *serverSession, msg []byte) {
	if srv.head > 0 && len(srv.queue) == cap(srv.queue) {
		n := copy(srv.queue, srv.queue[srv.head:])
		clear(srv.queue[n:])
		srv.queue, srv.head = srv.queue[:n], 0
	}
	srv.queue = append(srv.queue, inbound{sess: sess, msg: append(srv.takeBuf(), msg...)})
}

// takeBuf pops an empty buffer off the freelist (nil if it has none).
func (srv *Server) takeBuf() []byte {
	n := len(srv.bufs)
	if n == 0 {
		return nil
	}
	buf := srv.bufs[n-1][:0]
	srv.bufs = srv.bufs[:n-1]
	return buf
}

// Stats returns a copy of the server counters.
func (srv *Server) Stats() ServerStats {
	st := srv.stats
	st.Epoch = srv.epoch
	st.EpochBumpedAt = srv.epochAt
	return st
}

// Sessions returns a snapshot of every attached session, in id order.
func (srv *Server) Sessions() []SessionInfo {
	out := make([]SessionInfo, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		out = append(out, SessionInfo{
			ID: s.id, Epoch: s.epoch, Executed: s.executed,
			Mutations: s.mutations, LastMutationAt: s.lastMutationAt,
		})
	}
	slices.SortFunc(out, func(a, b SessionInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// kick wakes the dispatcher if it is parked; the idle flag flips here
// so two arrivals at the same instant cannot double-unpark it.
func (srv *Server) kick() {
	if srv.idle {
		srv.idle = false
		srv.disp.Unpark()
	}
}

// run is the dispatcher: drain the frame queue in arrival order, park
// when empty.
func (srv *Server) run(p *sim.Proc) {
	for {
		if srv.head == len(srv.queue) {
			srv.queue, srv.head = srv.queue[:0], 0
			srv.idle = true
			p.Park()
			continue
		}
		in := srv.queue[srv.head]
		srv.queue[srv.head] = inbound{}
		srv.head++
		srv.handle(p, in.sess, in.msg)
		srv.bufs = append(srv.bufs, in.msg)
	}
}

// handle processes one frame end to end: decode, dedup, fence, execute,
// cache, reply.
func (srv *Server) handle(p *sim.Proc, sess *serverSession, msg []byte) {
	srv.stats.Frames++
	req := &sess.req
	if err := decodeRequest(req, msg, srv.names); err != nil {
		srv.stats.BadFrames++
		return
	}

	// Datagrams execute without sequencing or reply; a lost one is lost.
	if req.Kind == frameDatagram {
		if req.op.Kind == opMemoize {
			sess.ch.Memoize(req.op.Table, req.op.Handle)
		}
		return
	}

	// The piggybacked ack advances the resolved floor: everything below
	// it is settled client-side, so its cached responses can go.
	if req.Ack > sess.floor {
		sess.floor = req.Ack
		for seq, buf := range sess.cache {
			if seq < sess.floor {
				delete(sess.cache, seq)
				srv.bufs = append(srv.bufs, buf)
			}
		}
	}

	// Retransmit of an already-answered request: replay the cached
	// response, do not re-execute. This is the at-most-once mechanism.
	if cached, ok := sess.cache[req.Seq]; ok {
		srv.stats.DedupHits++
		sess.link.Send(sess.side, cached)
		return
	}

	// A ghost copy below the floor: the client has already abandoned
	// this op (and quarantined past the link's max delay before doing
	// anything else), so executing it now would be a lost update wearing
	// a valid seq. Refuse; mutations are the dangerous case.
	if req.Seq < sess.floor {
		if req.op.Kind.Mutating() {
			srv.stats.StaleWrites++
		}
		srv.resp = response{Session: sess.id, Seq: req.Seq, Status: statusStale}
		buf := appendResponse(srv.takeBuf(), &srv.resp)
		sess.link.Send(sess.side, buf)
		srv.bufs = append(srv.bufs, buf)
		return
	}

	// Epoch fencing: a mutation from a session that lost an election may
	// not touch the switch, even if its request was composed before the
	// takeover and merely delayed in flight.
	if req.Epoch > srv.epoch {
		srv.epoch = req.Epoch
		srv.epochAt = srv.sim.Now()
	}
	if req.op.Kind.Mutating() && req.Epoch < srv.epoch {
		srv.stats.FencedWrites++
		srv.resp = response{Session: sess.id, Seq: req.Seq, Status: statusFenced}
		srv.reply(sess)
		return
	}

	srv.execute(p, sess, req)
	srv.reply(sess)
}

// execute runs the request's op on the session's inner channel (paying
// its channel latency on the dispatcher process) and builds the response
// in srv.resp.
func (srv *Server) execute(p *sim.Proc, sess *serverSession, req *request) {
	srv.resp = response{Session: sess.id, Seq: req.Seq, Status: statusOK}
	resp, op := &srv.resp, &req.op
	if op.Kind >= driver.NumOpKinds {
		resp.Status = statusError
		resp.ErrMsg = "unknown verb"
		return
	}
	if op.Kind == driver.OpRead {
		for len(sess.rows) < len(op.Reqs) {
			sess.rows = append(sess.rows, nil)
		}
		op.Rows = sess.rows[:len(op.Reqs)]
	}
	err := driver.Apply(sess.ch, p, op)
	if err == nil {
		resp.carry(op)
	}
	srv.stats.Executed++
	sess.executed++
	if err == nil && op.Kind.Mutating() {
		srv.stats.MutationsExecuted++
		sess.mutations++
		sess.lastMutationAt = srv.sim.Now()
	}
	switch {
	case err == nil:
	case errors.Is(err, ctlplane.ErrNotPrimary):
		// The inner ctlplane session was demoted: the second fence.
		resp.Status = statusFenced
		resp.ErrMsg = err.Error()
	case driver.IsTransient(err):
		resp.Status = statusTransient
		resp.ErrMsg = err.Error()
	default:
		resp.Status = statusError
		resp.ErrMsg = err.Error()
	}
}

// reply encodes srv.resp once, into a buffer the session's dedup cache
// keeps, and sends those bytes; a retransmit is answered from the same
// bytes.
func (srv *Server) reply(sess *serverSession) {
	buf := appendResponse(srv.takeBuf(), &srv.resp)
	sess.cache[srv.resp.Seq] = buf
	sess.link.Send(sess.side, buf)
}
