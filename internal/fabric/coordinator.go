package fabric

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ctlchan"
	"repro/internal/driver"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// retryBackoff spaces install/audit retries while a node's control
// channel is degraded.
const retryBackoff = 50 * time.Microsecond

// Escalation tracks one network-wide reaction: a source blocked by one
// switch's local agent being filtered at every other switch.
type Escalation struct {
	// Src is the filtered source address.
	Src uint64
	// DetectedAt/DetectedBy record the triggering block event.
	DetectedAt sim.Time
	DetectedBy string
	// Installed maps node name → virtual time its filter committed.
	Installed map[string]sim.Time
	// SpinesDoneAt is when the last spine filter committed (the
	// upstream path is cut from here on); AllDoneAt when every target
	// has it. Zero while incomplete.
	SpinesDoneAt sim.Time
	AllDoneAt    sim.Time

	targets      int
	spineTargets int
	spinesDone   int
}

// Complete reports whether every target switch holds the filter.
func (e *Escalation) Complete() bool { return e.AllDoneAt != 0 }

// HHEntry is one row of the fabric-wide heavy-hitter view.
type HHEntry struct {
	Src   uint64
	Bytes uint64
}

// CoordinatorStats counts coordinator activity.
type CoordinatorStats struct {
	// Events is every event observed; Blocks/HHReports split it by kind.
	Events    uint64
	Blocks    uint64
	HHReports uint64
	// DupBlocks counts block events for sources already escalating —
	// e.g. a transit switch detecting the same attacker later.
	DupBlocks uint64
	// FilterInstalls counts filters committed on target switches.
	FilterInstalls uint64
	// DegradedInstalls counts installs abandoned by a degraded channel
	// (ambiguous fate); AuditConfirmed of those were found already
	// present on audit, Reissues were found absent and sent again.
	DegradedInstalls uint64
	AuditConfirmed   uint64
	Reissues         uint64
	// AuditRetries counts audit reads that themselves failed (channel
	// still down) and were retried after retryBackoff.
	AuditRetries uint64
	// TransientRetries counts runs whose unapplied rest was retried on
	// ErrTransient.
	TransientRetries uint64
	// InstallErrors counts installs abandoned on permanent errors.
	InstallErrors uint64
	// GraySuspects/GrayClears count gray-failure events consumed (dups
	// for an already-excluded uplink are counted but act as no-ops).
	GraySuspects uint64
	GrayClears   uint64
	// Reroutes counts exclude/restore transitions acted on; RouteMoves
	// the individual route-entry modifications committed for them.
	Reroutes   uint64
	RouteMoves uint64
	// DegradedRouteMoves counts route modifications abandoned by a
	// degraded channel; RouteAuditConfirmed of those were found already
	// applied on audit, RouteReissues were found stale and sent again.
	DegradedRouteMoves  uint64
	RouteAuditConfirmed uint64
	RouteReissues       uint64
}

// SpineHealthState is the coordinator's verdict on one spine.
type SpineHealthState uint8

const (
	// SpineHealthy: no leaf currently reports loss toward the spine.
	SpineHealthy SpineHealthState = iota
	// SpineGray: some — but not all — leaves report loss, the signature
	// of a gray trunk (the spine itself is up; specific links drop).
	SpineGray
	// SpineDead: every leaf reports loss, or the coordinator's own
	// control channel to the spine says the peer is dead — the
	// whole-switch failure signature.
	SpineDead
)

func (s SpineHealthState) String() string {
	switch s {
	case SpineGray:
		return "gray"
	case SpineDead:
		return "dead"
	default:
		return "healthy"
	}
}

// SpineHealth is the coordinator's merged per-leaf evidence about one
// spine.
type SpineHealth struct {
	State SpineHealthState
	// Suspects is the set of leaves currently reporting probe loss on
	// their uplink to this spine.
	Suspects map[string]bool
	// PeerDead notes corroborating channel evidence: the coordinator's
	// own client to this spine currently classifies its degrade as
	// peer-dead. Best-effort — the coordinator only learns it when an
	// operation to the spine times out, so a crash with no in-flight
	// coordinator traffic shows up through probe evidence alone.
	PeerDead bool
	// Since is when State last changed (zero if never).
	Since sim.Time
}

// Reroute records one coordinator reaction to per-leaf link evidence:
// excluding a spine from one leaf's ECMP paths (Exclude true) or
// restoring it after heal (false). A bad trunk leaf↔spine kills both
// directions, so one piece of evidence moves two route sets: the
// evidence leaf's own egress, and every other leaf's routes toward
// destinations on the evidence leaf (which would die on the
// spine→leaf hop). Trunks the evidence says nothing about are left
// alone.
type Reroute struct {
	Leaf  string
	Spine int
	// Exclude distinguishes suspect-driven exclusion from clear-driven
	// restore.
	Exclude bool
	// At is the triggering event's emission time (detection instant at
	// the leaf); DoneAt when every implied route move had committed on
	// the leaf — zero while moves are still in flight.
	At     sim.Time
	DoneAt sim.Time
	// Moves is the number of destinations shifted to another spine.
	Moves int

	pending int
}

// Coordinator subscribes to every agent's events and composes
// network-wide reactions. It runs entirely on the virtual clock:
// deciding never blocks, so an event is handled where it is observed,
// inside the emitting agent's process; one installer process per node
// applies the decisions through that node's own lossy control channel —
// so one partitioned switch can stall only its own installer, never the
// agents or its peers.
//
// Each installer sends everything queued for its node as one run — one
// frame, one round trip — which the node's server applies in order,
// all-or-prefix.
//
// At-most-once discipline: a run abandoned with
// driver.ErrChannelDegraded MAY have executed server-side, in part or
// whole, and by the time the error surfaces the channel's MSL quarantine
// guarantees no copy is still in flight. The installer therefore audits
// the tables the run writes (reads are idempotent) and reissues only the
// ops whose write is definitely absent — a blind retry could
// double-install.
type Coordinator struct {
	sim *sim.Simulator
	// onEscalation, if set, runs synchronously when an escalation is
	// created, before any install is issued — the chaos tests' hook for
	// injecting faults "mid-escalation".
	onEscalation func(esc *Escalation)

	f          *Fabric
	installers map[string]*installer

	stopped bool

	escalations map[uint64]*Escalation
	hh          map[uint64]uint64

	// health[sp] merges per-leaf probe evidence about spine sp; exclude
	// is each leaf's current ECMP exclusion set; assign tracks where
	// each leaf's remote destinations currently route (lazily seeded
	// from the full-set hash the prologues installed).
	health   []SpineHealth
	exclude  map[string]map[int]bool
	assign   map[string]map[uint32]int
	reroutes []*Reroute

	stats CoordinatorStats
	err   error
}

func newCoordinator(s *sim.Simulator) *Coordinator {
	return &Coordinator{
		sim:         s,
		installers:  make(map[string]*installer),
		escalations: make(map[uint64]*Escalation),
		hh:          make(map[uint64]uint64),
		exclude:     make(map[string]map[int]bool),
		assign:      make(map[string]map[uint32]int),
	}
}

// attach wires the coordinator to the built fabric: one installer
// process per node, each writing through that node's CoordCli.
func (co *Coordinator) attach(f *Fabric) {
	co.f = f
	co.health = make([]SpineHealth, f.Cfg.Spines)
	for sp := range co.health {
		co.health[sp].Suspects = make(map[string]bool)
	}
	for _, n := range f.Nodes() {
		ins := &installer{co: co, node: n}
		ins.proc = co.sim.Spawn("fabric-install-"+n.Name, ins.run)
		co.installers[n.Name] = ins
	}
}

// Observe is the core.Options.EventSink of every fabric agent. It runs
// inside the emitting agent's process and never blocks: it updates the
// coordinator's view and enqueues work on the per-node installers.
func (co *Coordinator) Observe(ev core.Event) {
	if co.stopped {
		return
	}
	co.stats.Events++
	switch ev.Kind {
	case usecases.EventDosBlock:
		co.stats.Blocks++
		co.escalate(ev)
	case usecases.EventHHEstimate:
		co.stats.HHReports++
		// Estimates are monotone per sender; keep the best view.
		if ev.Val > co.hh[ev.Key] {
			co.hh[ev.Key] = ev.Val
		}
	case usecases.EventGraySuspect:
		co.stats.GraySuspects++
		co.graySuspect(ev)
	case usecases.EventGrayClear:
		co.stats.GrayClears++
		co.grayClear(ev)
	}
}

// spineForEvent maps a leaf detector event (Key = the leaf's uplink
// port) back to the spine it faces, or -1 for a malformed event.
func (co *Coordinator) spineForEvent(ev core.Event) (*Node, int) {
	n := co.f.Node(ev.Agent)
	if n == nil || n.IsSpine {
		return nil, -1
	}
	sp := int(ev.Key) - co.f.Cfg.HostPorts
	if sp < 0 || sp >= co.f.Cfg.Spines {
		return nil, -1
	}
	return n, sp
}

// graySuspect is one leaf's detector latching an uplink: fold the
// evidence into the spine's health view and move that leaf's affected
// destinations off the spine.
func (co *Coordinator) graySuspect(ev core.Event) {
	leaf, sp := co.spineForEvent(ev)
	if leaf == nil {
		return
	}
	ex := co.exclude[leaf.Name]
	if ex == nil {
		ex = make(map[int]bool)
		co.exclude[leaf.Name] = ex
	}
	if ex[sp] {
		return
	}
	ex[sp] = true
	co.health[sp].Suspects[leaf.Name] = true
	co.updateHealth(sp)
	co.reroute(leaf, sp, true, ev.At)
}

// grayClear is the detector's heal: drop the evidence and move the
// leaf's destinations back onto their home spine.
func (co *Coordinator) grayClear(ev core.Event) {
	leaf, sp := co.spineForEvent(ev)
	if leaf == nil {
		return
	}
	ex := co.exclude[leaf.Name]
	if !ex[sp] {
		return
	}
	delete(ex, sp)
	delete(co.health[sp].Suspects, leaf.Name)
	co.updateHealth(sp)
	co.reroute(leaf, sp, false, ev.At)
}

// updateHealth reclassifies spine sp from the current evidence:
// unanimous leaf suspicion (or the coordinator's own channel reporting
// the peer dead) is a whole-switch failure; partial suspicion is a
// gray link; none is healthy.
func (co *Coordinator) updateHealth(sp int) {
	h := &co.health[sp]
	h.PeerDead = co.f.Spines[sp].CoordCli.DegradedCause() == ctlchan.CausePeerDead
	st := SpineHealthy
	switch {
	case len(h.Suspects) == 0:
		st = SpineHealthy
	case len(h.Suspects) == len(co.f.Leaves) || h.PeerDead:
		st = SpineDead
	default:
		st = SpineGray
	}
	if st != h.State {
		h.State = st
		h.Since = co.sim.Now()
	}
}

// reroute reacts to one evidence change about trunk evLeaf↔sp: every
// affected (source leaf, destination) pair is re-resolved under the
// union of the source's exclusions and the destination leaf's (a path
// crosses both trunks), and each changed route is enqueued on its
// owning leaf's installer — the same serialized, at-most-once path
// escalation filters take. Affected pairs are exactly those touching
// the evidence leaf: its own egress, and other leaves' routes toward
// destinations on it. at is the detection (or heal) instant.
func (co *Coordinator) reroute(evLeaf *Node, sp int, exclude bool, at sim.Time) {
	co.stats.Reroutes++
	rr := &Reroute{Leaf: evLeaf.Name, Spine: sp, Exclude: exclude, At: at}
	co.reroutes = append(co.reroutes, rr)
	spines := co.f.Cfg.Spines
	for _, src := range co.f.Leaves {
		as := co.assign[src.Name]
		if as == nil {
			as = make(map[uint32]int)
			co.assign[src.Name] = as
		}
		for _, rt := range src.Routes {
			dst := rt.Dst
			dl := AddrLeaf(dst)
			if src != evLeaf && dl != evLeaf.Index {
				continue // path touches neither side of the evidence trunk
			}
			cur, ok := as[dst]
			if !ok {
				cur = SpineForSet(dst, spines, nil)
			}
			want := SpineForSet(dst, spines, co.unionExclude(src.Name, dl))
			if want == cur {
				continue
			}
			as[dst] = want
			rr.Moves++
			rr.pending++
			co.installers[src.Name].enqueue(installOp{route: routeOp{
				Route: rt, port: uint64(co.f.UplinkPort(want)), rr: rr}})
		}
	}
	if rr.pending == 0 {
		rr.DoneAt = co.sim.Now()
	}
}

// unionExclude is the spine set a path from src to a host on dstLeaf
// must avoid: spines with a bad trunk on either end of the path.
func (co *Coordinator) unionExclude(src string, dstLeaf int) map[int]bool {
	a := co.exclude[src]
	b := co.exclude[co.f.Leaves[dstLeaf].Name]
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	u := make(map[int]bool, len(a)+len(b))
	for sp := range a {
		u[sp] = true
	}
	for sp := range b {
		u[sp] = true
	}
	return u
}

// finishRoute records one committed route move of rr.
func (co *Coordinator) finishRoute(rr *Reroute) {
	co.stats.RouteMoves++
	rr.pending--
	if rr.pending == 0 {
		rr.DoneAt = co.sim.Now()
	}
}

// Health returns the coordinator's current view of spine sp.
func (co *Coordinator) Health(sp int) SpineHealth {
	h := co.health[sp]
	out := SpineHealth{State: h.State, PeerDead: h.PeerDead, Since: h.Since,
		Suspects: make(map[string]bool, len(h.Suspects))}
	for l := range h.Suspects {
		out.Suspects[l] = true
	}
	return out
}

// Reroutes returns every reroute acted on, in processing order.
func (co *Coordinator) Reroutes() []*Reroute { return co.reroutes }

// escalate turns one switch's local block into filter installs on
// every other switch.
func (co *Coordinator) escalate(ev core.Event) {
	if co.escalations[ev.Key] != nil {
		co.stats.DupBlocks++
		return
	}
	esc := &Escalation{
		Src: ev.Key, DetectedAt: ev.At, DetectedBy: ev.Agent,
		Installed: make(map[string]sim.Time),
	}
	co.escalations[ev.Key] = esc
	if co.onEscalation != nil {
		co.onEscalation(esc)
	}
	for _, n := range co.f.Nodes() {
		if n.Name == ev.Agent {
			continue // the detecting switch already blocks locally
		}
		esc.targets++
		if n.IsSpine {
			esc.spineTargets++
		}
		co.installers[n.Name].enqueue(installOp{src: ev.Key, esc: esc})
	}
}

// finishInstall records a committed filter on n.
func (co *Coordinator) finishInstall(n *Node, op installOp) {
	now := co.sim.Now()
	op.esc.Installed[n.Name] = now
	co.stats.FilterInstalls++
	if n.IsSpine {
		op.esc.spinesDone++
		if op.esc.spinesDone == op.esc.spineTargets {
			op.esc.SpinesDoneAt = now
		}
	}
	if len(op.esc.Installed) == op.esc.targets {
		op.esc.AllDoneAt = now
	}
}

// Escalation returns the escalation for src, or nil.
func (co *Coordinator) Escalation(src uint64) *Escalation { return co.escalations[src] }

// TopK returns the fabric-wide heavy-hitter view: the k largest merged
// per-sender estimates, bytes descending (source ascending on ties —
// deterministic).
func (co *Coordinator) TopK(k int) []HHEntry {
	out := make([]HHEntry, 0, len(co.hh))
	for src, b := range co.hh {
		out = append(out, HHEntry{Src: src, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Src < out[j].Src
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Stats returns the coordinator's counters.
func (co *Coordinator) Stats() CoordinatorStats { return co.stats }

func (co *Coordinator) stop() {
	co.stopped = true
	for _, n := range co.f.Nodes() {
		co.installers[n.Name].stop()
	}
}

// ---- per-node installer ----

// installOp is one unit of installer work: either an escalation filter
// (esc set) or a reroute route-move (route.rr set). Both ride the same
// per-node FIFO, so a node's filters and route moves apply in the
// order the coordinator decided them.
type installOp struct {
	src uint64
	esc *Escalation

	route routeOp
}

// routeOp modifies one destination's route entry to a new uplink port;
// rr is the reroute it belongs to, nil when the op is a filter.
type routeOp struct {
	Route
	port uint64
	rr   *Reroute
}

// target is the table op writes and the key its entry is audited by.
func (op *installOp) target() (table string, key uint64) {
	if op.route.rr != nil {
		return RouteTable, uint64(op.route.Dst)
	}
	return FilterTable, op.src
}

// installer serializes one node's filter installs and route moves on its
// own process, so a wedged channel to this node cannot block work
// elsewhere.
type installer struct {
	co    *Coordinator
	node  *Node
	proc  *sim.Proc
	queue []installOp
	idle  bool

	// ops is the queue prefix in flight as driver ops, keys and ports the
	// backing of their keys and data; all three are reused across runs.
	ops   []driver.Op
	keys  []rmt.KeySpec
	ports []uint64
}

func (ins *installer) enqueue(op installOp) {
	ins.queue = append(ins.queue, op)
	if ins.idle {
		ins.idle = false
		ins.proc.Unpark()
	}
}

func (ins *installer) stop() {
	if ins.idle {
		ins.idle = false
		ins.proc.Unpark()
	}
}

func (ins *installer) run(p *sim.Proc) {
	for !ins.co.stopped {
		if len(ins.queue) == 0 {
			ins.idle = true
			p.Park()
			continue
		}
		ins.flush(p)
	}
}

// flush sends the head of the queue as one run and settles it. The
// applied prefix is finished. After ErrTransient the rest stays at the
// front and goes again after retryBackoff. After ErrChannelDegraded an
// audit finishes the ops that landed and leaves the rest at the front
// to be reissued. Any other error drops the op that failed.
func (ins *installer) flush(p *sim.Proc) {
	co := ins.co
	n := ins.build()
	// Observe may append to the queue while the run is out, never
	// reorder it: its first n ops stay the run's.
	applied, err := ins.node.CoordCli.DoRun(p, ins.ops[:n])
	ins.settle(applied, nil)
	switch {
	case err == nil:
	case errors.Is(err, driver.ErrChannelDegraded):
		ins.recoverDegraded(p, n-applied)
	case errors.Is(err, driver.ErrTransient):
		co.stats.TransientRetries++
		p.Sleep(retryBackoff)
	default:
		table, key := ins.queue[0].target()
		co.stats.InstallErrors++
		co.setErr(fmt.Errorf("fabric: write %s %#x on %s: %w", table, key, ins.node.Name, err))
		ins.queue = ins.queue[1:]
	}
}

// build lays out in ins.ops the longest queue prefix that writes each
// entry at most once, so that an audit can tell every op of the run
// apart, and returns its length.
func (ins *installer) build() int {
	n := 1
	for ; n < len(ins.queue); n++ {
		table, key := ins.queue[n].target()
		dup := false
		for i := range ins.queue[:n] {
			if t, k := ins.queue[i].target(); t == table && k == key {
				dup = true
				break
			}
		}
		if dup {
			break
		}
	}
	if cap(ins.ops) < n {
		ins.ops, ins.keys, ins.ports = make([]driver.Op, n), make([]rmt.KeySpec, n), make([]uint64, n)
	}
	for i := range ins.queue[:n] {
		if r := &ins.queue[i].route; r.rr != nil {
			ins.ports[i] = r.port
			ins.ops[i] = driver.Op{Kind: driver.OpModifyEntry, Table: RouteTable, Handle: r.Handle,
				Action: RouteAction, Data: ins.ports[i : i+1]}
		} else {
			ins.keys[i] = rmt.ExactKey(ins.queue[i].src)
			ins.ops[i] = driver.Op{Kind: driver.OpAddEntry, Table: FilterTable,
				Keys: ins.keys[i : i+1], Action: FilterAction}
		}
	}
	return n
}

// settle finishes the first k queued ops and takes them off the queue;
// with landed set, it finishes only the ops landed marks and leaves the
// others at the front, in order.
func (ins *installer) settle(k int, landed []bool) {
	kept := 0
	for i := range ins.queue[:k] {
		op := ins.queue[i]
		if landed != nil && !landed[i] {
			ins.queue[kept] = op
			kept++
			continue
		}
		if op.route.rr != nil {
			ins.co.finishRoute(op.route.rr)
		} else {
			ins.co.finishInstall(ins.node, op)
		}
	}
	ins.queue = append(ins.queue[:kept], ins.queue[k:]...)
}

// recoverDegraded settles the first n queued ops after their run went
// degraded: one audit read per table they write, retried while the
// channel stays down, decides which of them landed. A filter has landed
// once an entry for its source exists, a route move once the
// destination's entry points at the new port.
func (ins *installer) recoverDegraded(p *sim.Proc, n int) {
	co, st := ins.co, &ins.co.stats
	audited := make(map[string][]rmt.Entry, 2)
	landed := make([]bool, n)
	for i := range ins.queue[:n] {
		op := &ins.queue[i]
		table, key := op.target()
		entries, ok := audited[table]
		for !ok {
			var err error
			if entries, err = ins.node.CoordCli.ReadEntries(p, table); err == nil {
				audited[table], ok = entries, true
			} else if co.stopped {
				return
			} else {
				st.AuditRetries++
				p.Sleep(retryBackoff)
			}
		}
		for _, e := range entries {
			if len(e.Keys) == 1 && e.Keys[0].Value == key {
				landed[i] = op.route.rr == nil || len(e.Data) == 1 && e.Data[0] == op.route.port
				break
			}
		}
		degraded, confirmed, reissued := &st.DegradedInstalls, &st.AuditConfirmed, &st.Reissues
		if op.route.rr != nil {
			degraded, confirmed, reissued = &st.DegradedRouteMoves, &st.RouteAuditConfirmed, &st.RouteReissues
		}
		*degraded++
		if landed[i] {
			*confirmed++
		} else {
			*reissued++
		}
	}
	ins.settle(n, landed)
}

func (co *Coordinator) setErr(err error) {
	if co.err == nil {
		co.err = err
	}
}

// Err returns the first permanent installer error, if any.
func (co *Coordinator) Err() error { return co.err }
