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
// of ops on the session's inner driver channel, and replies. It is
// transport only. Each session is served by its own process, one frame
// at a time in arrival order, so the frames of different sessions
// contend at the inner channel — a ctlplane.Service, the one scheduler
// and the one model of the switch CPU — which decides who runs next and
// who may write.
//
// The server is where at-most-once lands: executed responses are cached
// by (session, seq) and retransmits are answered from the cache, while
// mutations whose seq has fallen below the session's resolved floor —
// ghost copies of operations the client already abandoned — are
// rejected without executing. Each of these is decided once per frame,
// for the whole run it carries. A write the ctlplane election refuses
// (ctlplane.ErrNotPrimary) is answered as fenced.
type Server struct {
	sim      *sim.Simulator
	sessions map[uint32]*serverSession

	// bufs is the freelist of frame buffers. An arriving frame is the
	// link's only until the receive callback returns, so it is copied
	// into one; the dedup caches' response buffers come from it too.
	bufs [][]byte
	// names interns the names of every session's decoded requests.
	names wire.Names

	// epoch is the highest election epoch seen on any session and
	// epochAt when it last rose: a label the server reports, not a fence.
	epoch   uint64
	epochAt sim.Time

	stats ServerStats
}

type serverSession struct {
	id   uint32
	link *netsim.Link
	side int // the server's side of the link; replies go out here
	ch   driver.Channel

	// proc serves the session's frames. It takes them from inbox, from
	// head on, and parks with idle set when inbox is empty.
	proc  *sim.Proc
	idle  bool
	inbox [][]byte
	head  int

	// floor is the client's lowest unresolved seq: responses below it
	// are garbage-collected, and mutating requests below it are stale.
	floor uint64
	// cache holds encoded responses in seq order for retransmit replay.
	// Each response is encoded once, into a buffer the cache owns from
	// then until the floor passes its seq and it is trimmed off the front.
	cache []cachedResponse

	// req is the decoded form of the frame in hand, rows the result
	// matrices of its batched reads, back to back, and resp its response
	// under construction; all are refilled in place per frame.
	req  request
	rows [][]uint64
	resp response

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
	// FencedWrites counts mutations the ctlplane election refused
	// (ctlplane.ErrNotPrimary): the failing op and the rest of its run.
	FencedWrites uint64
	// StaleWrites counts mutations rejected for a seq below the
	// session's resolved floor.
	StaleWrites uint64
	// Epoch is the highest election epoch seen; EpochBumpedAt is when it
	// last rose.
	Epoch         uint64
	EpochBumpedAt sim.Time
}

// NewServer returns a control-channel server with no sessions yet; each
// Attach starts the process that serves its session.
func NewServer(s *sim.Simulator) *Server {
	return &Server{sim: s, sessions: make(map[uint32]*serverSession), names: make(wire.Names)}
}

// Attach binds a session to the server: frames arriving at side of link
// are served by the session's own process and executed on ch, typically
// a ctlplane session opened with ElectionID == epoch. The service behind
// it schedules this session's ops against every other session's and
// refuses a demoted primary's writes. Replies are sent back out the same
// side. ch is handed slices of the session's decoded request, which the
// next frame overwrites; like every driver.Channel it copies what it
// keeps.
func (srv *Server) Attach(link *netsim.Link, side int, sessionID uint32, epoch uint64, ch driver.Channel) {
	sess := &serverSession{id: sessionID, link: link, side: side, ch: ch}
	srv.sessions[sessionID] = sess
	if epoch > srv.epoch {
		srv.epoch = epoch
		srv.epochAt = srv.sim.Now()
	}
	sess.proc = srv.sim.Spawn("ctlchan-session", func(p *sim.Proc) { srv.serve(p, sess) })
	link.SetRecv(side, func(msg []byte) { srv.enqueue(sess, msg) })
}

// enqueue copies an arriving frame into a recycled buffer, queues it for
// the session and wakes the session's process if it is parked; the idle
// flag flips here, so two arrivals at the same instant cannot
// double-unpark it. The consumed prefix of the inbox is reclaimed before
// the slice would grow, so its footprint tracks the deepest backlog, not
// the frame count.
func (srv *Server) enqueue(sess *serverSession, msg []byte) {
	if sess.head > 0 && len(sess.inbox) == cap(sess.inbox) {
		n := copy(sess.inbox, sess.inbox[sess.head:])
		clear(sess.inbox[n:])
		sess.inbox, sess.head = sess.inbox[:n], 0
	}
	sess.inbox = append(sess.inbox, append(srv.takeBuf(), msg...))
	if sess.idle {
		sess.idle = false
		sess.proc.Unpark()
	}
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

// serve is a session's process: handle its frames in arrival order, park
// when none is waiting.
func (srv *Server) serve(p *sim.Proc, sess *serverSession) {
	for {
		if sess.head == len(sess.inbox) {
			sess.inbox, sess.head = sess.inbox[:0], 0
			sess.idle = true
			p.Park()
			continue
		}
		msg := sess.inbox[sess.head]
		sess.inbox[sess.head] = nil
		sess.head++
		srv.handle(p, sess, msg)
		srv.bufs = append(srv.bufs, msg)
	}
}

// handle processes one frame end to end: decode, dedup, execute, cache,
// reply. Dedup and the stale floor each judge the frame once, for every
// op of its run.
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
		buf := appendResponse(srv.takeBuf(), sess.begin(statusStale))
		sess.link.Send(sess.side, buf)
		srv.bufs = append(srv.bufs, buf)
		return
	}

	// The epoch is only reported; the ctlplane election under ch fences.
	if req.Epoch > srv.epoch {
		srv.epoch = req.Epoch
		srv.epochAt = srv.sim.Now()
	}
	srv.execute(p, sess, req)
	srv.reply(sess)
}

// begin starts the response to the frame in hand in sess.resp, with no
// results yet (their array is kept for reuse).
func (sess *serverSession) begin(status uint8) *response {
	sess.resp = response{Session: sess.id, Seq: sess.req.Seq, Status: status, Results: sess.resp.Results[:0]}
	return &sess.resp
}

// execute runs the request's ops in order on the session's inner channel
// (paying each op's channel latency on the session's process), stops at
// the first that fails, and builds the response in sess.resp: a result
// per applied op, then the stopping op's status.
func (srv *Server) execute(p *sim.Proc, sess *serverSession, req *request) {
	resp := sess.begin(statusOK)
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
				// The ctlplane election demoted the session: the rest of
				// the run's writes are fenced.
				resp.Status = statusFenced
				srv.stats.FencedWrites += uint64(mutating(req.ops[i:]))
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

// reply encodes sess.resp once, into a buffer the session's dedup cache
// keeps, and sends those bytes; a retransmit is answered from the same
// bytes.
func (srv *Server) reply(sess *serverSession) {
	buf := appendResponse(srv.takeBuf(), &sess.resp)
	i, _ := slices.BinarySearchFunc(sess.cache, sess.resp.Seq, cmpSeq)
	sess.cache = slices.Insert(sess.cache, i, cachedResponse{seq: sess.resp.Seq, buf: buf})
	sess.link.Send(sess.side, buf)
}
