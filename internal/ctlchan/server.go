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
// request frames arriving on attached links, executes each frame's run
// of ops on the session's inner driver channel, and replies. One
// dispatcher process serves all sessions, so execution is serialized
// exactly like the single control CPU it models.
//
// The server is where at-most-once lands: executed responses are cached
// by (session, seq) and retransmits are answered from the cache, while
// mutations whose seq has fallen below the session's resolved floor —
// ghost copies of operations the client already abandoned — are
// rejected without executing. Epoch fencing is also enforced here (and
// again by the ctlplane service below, when the inner channel is a
// ctlplane session): a mutation carrying an epoch lower than the
// highest the server has seen is refused. Each of these is decided once
// per frame, for the whole run it carries.
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
	// cache holds encoded responses in seq order for retransmit replay.
	// Each response is encoded once, into a buffer the cache owns from
	// then until the floor passes its seq and it is trimmed off the front.
	cache []cachedResponse

	// req is the decoded form of the frame in hand and rows the result
	// matrices of its batched reads, back to back; both are refilled in
	// place per frame.
	req  request
	rows [][]uint64

	// lastMutationAt is when the session last executed a mutation.
	lastMutationAt sim.Time
}

// cachedResponse is one encoded response in a session's dedup cache.
type cachedResponse struct {
	seq uint64
	buf []byte
}

// lookup returns the cached response to seq, if there is one.
func (sess *serverSession) lookup(seq uint64) ([]byte, bool) {
	i, ok := slices.BinarySearchFunc(sess.cache, seq, cmpSeq)
	if !ok {
		return nil, false
	}
	return sess.cache[i].buf, true
}

func cmpSeq(c cachedResponse, seq uint64) int { return cmp.Compare(c.seq, seq) }

// ServerStats counts server-side frame outcomes.
type ServerStats struct {
	// Frames counts frames received (including duplicates and garbage).
	Frames uint64
	// BadFrames counts frames that failed to decode.
	BadFrames uint64
	// Executed counts ops executed on an inner channel, each op of a run
	// once.
	Executed uint64
	// MutationsExecuted counts the mutating subset of Executed — the
	// number the at-most-once property is asserted against.
	MutationsExecuted uint64
	// DedupHits counts retransmitted frames answered from the response
	// cache without re-executing.
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
	sess := &serverSession{id: sessionID, epoch: epoch, link: link, side: side, ch: ch}
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
// cache, reply. Dedup, the stale floor and fencing each judge the frame
// once, for every op of its run.
func (srv *Server) handle(p *sim.Proc, sess *serverSession, msg []byte) {
	srv.stats.Frames++
	req := &sess.req
	if err := decodeRequest(req, msg, srv.names); err != nil {
		srv.stats.BadFrames++
		return
	}

	// Datagrams execute without sequencing or reply; a lost one is lost.
	if req.Kind == frameDatagram {
		for i := range req.ops {
			if op := &req.ops[i]; op.Kind == opMemoize {
				sess.ch.Memoize(op.Table, op.Handle)
			}
		}
		return
	}

	// The piggybacked ack advances the resolved floor: everything below
	// it is settled client-side, so its cached responses can go, in seq
	// order off the front of the cache.
	if req.Ack > sess.floor {
		sess.floor = req.Ack
		k := 0
		for k < len(sess.cache) && sess.cache[k].seq < sess.floor {
			srv.bufs = append(srv.bufs, sess.cache[k].buf)
			k++
		}
		n := copy(sess.cache, sess.cache[k:])
		clear(sess.cache[n:])
		sess.cache = sess.cache[:n]
	}

	// Retransmit of an already-answered request: replay the cached
	// response, do not re-execute. This is the at-most-once mechanism.
	if cached, ok := sess.lookup(req.Seq); ok {
		srv.stats.DedupHits++
		sess.link.Send(sess.side, cached)
		return
	}

	// A ghost copy below the floor: the client has already abandoned
	// this run (and quarantined past the link's max delay before doing
	// anything else), so executing it now would be a lost update wearing
	// a valid seq. Refuse; mutations are the dangerous case.
	if req.Seq < sess.floor {
		srv.stats.StaleWrites += uint64(mutating(req.ops))
		srv.begin(sess, statusStale)
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
	if n := mutating(req.ops); n > 0 && req.Epoch < srv.epoch {
		srv.stats.FencedWrites += uint64(n)
		srv.begin(sess, statusFenced)
		srv.reply(sess)
		return
	}

	srv.execute(p, sess, req)
	srv.reply(sess)
}

// begin starts the response to the frame in hand in srv.resp, with no
// results yet (their array is kept for reuse).
func (srv *Server) begin(sess *serverSession, status uint8) *response {
	srv.resp = response{Session: sess.id, Seq: sess.req.Seq, Status: status, Results: srv.resp.Results[:0]}
	return &srv.resp
}

// execute runs the request's ops in order on the session's inner channel
// (paying each op's channel latency on the dispatcher process), stops at
// the first that fails, and builds the response in srv.resp: a result per
// applied op, then the stopping op's status.
func (srv *Server) execute(p *sim.Proc, sess *serverSession, req *request) {
	resp := srv.begin(sess, statusOK)
	rows := 0
	for i := range req.ops {
		op := &req.ops[i]
		if op.Kind >= driver.NumOpKinds {
			resp.Status, resp.ErrMsg = statusError, "unknown verb"
			return
		}
		if op.Kind == driver.OpRead {
			for len(sess.rows) < rows+len(op.Reqs) {
				sess.rows = append(sess.rows, nil)
			}
			op.Rows = sess.rows[rows : rows+len(op.Reqs)]
			rows += len(op.Reqs)
		}
		err := driver.Apply(sess.ch, p, op)
		srv.stats.Executed++
		if err != nil {
			resp.Status, resp.ErrMsg = statusError, err.Error()
			switch {
			case errors.Is(err, ctlplane.ErrNotPrimary):
				// The inner ctlplane session was demoted: the second fence.
				resp.Status = statusFenced
			case driver.IsTransient(err):
				resp.Status = statusTransient
			}
			return
		}
		if op.Kind.Mutating() {
			srv.stats.MutationsExecuted++
			sess.lastMutationAt = srv.sim.Now()
		}
		resp.Results = append(resp.Results, result{})
		resp.Results[i].carry(op)
	}
}

// reply encodes srv.resp once, into a buffer the session's dedup cache
// keeps, and sends those bytes; a retransmit is answered from the same
// bytes.
func (srv *Server) reply(sess *serverSession) {
	buf := appendResponse(srv.takeBuf(), &srv.resp)
	i, _ := slices.BinarySearchFunc(sess.cache, srv.resp.Seq, cmpSeq)
	sess.cache = slices.Insert(sess.cache, i, cachedResponse{seq: srv.resp.Seq, buf: buf})
	sess.link.Send(sess.side, buf)
}
