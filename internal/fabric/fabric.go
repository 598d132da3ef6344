// Package fabric builds a leaf–spine topology of simulated RMT
// switches on one shared virtual clock and layers the first cross-node
// control structure on top: every switch runs its own Mantis agent
// over the lossy ctlchan transport, and a fabric coordinator
// subscribes to the agents' exported events to compose network-wide
// reactions — escalating a leaf's local DoS block into upstream
// filters at every other switch, and merging per-leaf heavy-hitter
// estimates into a global top-k.
//
// Topology: L leaves × S spines, every leaf trunked to every spine.
// Leaf host ports are 0..HostPorts-1; leaf uplink to spine s is port
// HostPorts+s; spine port l faces leaf l. Hosts are addressed by
// HostAddr(leaf, host), and each node's agent prologue installs the
// full destination route set, so any host can reach any other across
// the fabric.
//
// Control: each node carries two ctlchan sessions over separate
// message links to one per-node server — session 1 is the node's own
// agent (ctlplane RolePrimary), session 2 belongs to the coordinator
// (RoleLegacy, bulk class). The coordinator is therefore just another
// lossy-channel client of every switch, with the same degraded-mode
// ambiguity to resolve; see coordinator.go for its at-most-once
// install discipline.
package fabric

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/compiler/place"
	"repro/internal/core"
	"repro/internal/ctlchan"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// Table-name contract between the fabric layer and its programs.
const (
	// RouteTable/RouteAction name the destination-routing table every
	// fabric program must expose; prologues install HostAddr routes
	// into it.
	RouteTable  = "route"
	RouteAction = "route_pkt"
	// FilterTable/FilterAction name the coordinator-owned upstream
	// source filter. The table is plain (non-malleable): the
	// coordinator's session is its only writer, so escalations never
	// contend with the local agent's versioned malleable state.
	FilterTable  = "ufilter"
	FilterAction = "drop_pkt"
	// HeartbeatTable counts link probes per ingress port on leaves;
	// HeartbeatProto tags them on the wire.
	HeartbeatTable  = "hb_tbl"
	HeartbeatAction = "count_hb"
	HeartbeatProto  = 0xFD
)

// Gray-failure events exported by each leaf's per-uplink detector (use
// case #2 lifted fabric-wide). Key is the leaf's uplink port; the
// coordinator maps it back to a spine via the fabric's port layout.
const (
	EventGraySuspect = "gray.suspect"
	EventGrayClear   = "gray.clear"
)

// HostAddr returns the canonical address of host h on leaf l.
func HostAddr(leaf, host int) uint32 {
	return 0x0A000000 | uint32(leaf)<<8 | uint32(host+1)
}

// AddrLeaf extracts the leaf index from a HostAddr address.
func AddrLeaf(addr uint32) int { return int(addr>>8) & 0xFF }

// Config sizes and parameterizes a fabric.
type Config struct {
	// Leaves and Spines size the topology (both ≥ 1).
	Leaves int
	Spines int
	// HostPorts is the number of host-facing ports per leaf (default 4).
	HostPorts int

	// SpineProgram is the P4R source compiled onto the spines (default
	// SpineP4R; leaves run LeafP4R). Both roles must produce identical
	// wire headers; Build verifies.
	SpineProgram string

	// Target is the switch profile both programs must place under
	// (compiler.Options.Target; default place.DefaultTarget). "none"
	// skips the placement check — every simulated switch then behaves
	// as if it had unbounded stages.
	Target string

	// CtlDelay is the one-way control-link delay per node (default
	// 1µs); CtlProfile the fault profile of the agent and coordinator
	// control links (default none).
	CtlDelay   time.Duration
	CtlProfile faults.LinkProfile
	// CtlOpDeadline overrides each control client's per-operation
	// deadline (0 keeps the ctlchan default of ~4 retransmission
	// opportunities). Raise it when CtlProfile carries sustained loss:
	// a fabric prologue issues hundreds of operations, so even a 1%
	// per-op degrade probability wedges some node most runs.
	CtlOpDeadline time.Duration

	// Pacing is each agent's dialogue pacing (default 5µs).
	Pacing time.Duration

	// Seed derives every per-node and per-link RNG seed.
	Seed int64

	// Coordinator carries the coordinator's test hook.
	Coordinator CoordinatorOptions
}

// Fixed parameters of every fabric.
const (
	// trunkDelay is the one-way inter-switch propagation delay; host
	// access links are hostBandwidth with hostPropagation one way.
	trunkDelay      = time.Microsecond
	hostBandwidth   = 25e9
	hostPropagation = time.Microsecond

	// Link-failure detection: each spine emits one probe per leaf trunk
	// every grayTs, so a leaf's dialogue window of Td carries Td/grayTs
	// samples per uplink, and a per-leaf gray-failure detector (the
	// Fig. 16 program) feeds suspect/clear events to the coordinator's
	// health view. A window delivering under floor(grayEta·Td/grayTs)
	// probes strikes its uplink; grayStrikes consecutive strikes latch
	// it. Recovery has hysteresis: a latched uplink must deliver
	// essentially every probe (grayHealEta) for grayRecoverStrikes
	// consecutive windows — a 30% gray link clears a symmetric bar often
	// enough to flap.
	grayTs             = 500 * time.Nanosecond
	grayEta            = 0.75
	grayHealEta        = 0.99
	grayStrikes        = 2
	grayRecoverStrikes = 3
)

func (cfg *Config) setDefaults() error {
	if cfg.Leaves < 1 || cfg.Spines < 1 {
		return fmt.Errorf("fabric: need ≥1 leaf and ≥1 spine, got %d×%d", cfg.Leaves, cfg.Spines)
	}
	if cfg.HostPorts <= 0 {
		cfg.HostPorts = 4
	}
	if cfg.SpineProgram == "" {
		cfg.SpineProgram = SpineP4R
	}
	if cfg.Target == "" {
		cfg.Target = place.DefaultTarget
	}
	if cfg.CtlDelay <= 0 {
		cfg.CtlDelay = time.Microsecond
	}
	if cfg.Pacing <= 0 {
		cfg.Pacing = 5 * time.Microsecond
	}
	return nil
}

// Node is one switch of the fabric with its full per-switch control
// stack: driver, ctlplane service, ctlchan server, the node's own
// agent client, and the coordinator's client.
type Node struct {
	Name    string
	Index   int // leaf or spine index within its role
	IsSpine bool

	Plan *compiler.Plan
	Sw   *rmt.Switch
	Drv  *driver.Driver
	Svc  *ctlplane.Service
	Net  *netsim.Network
	Srv  *ctlchan.Server

	AgentLink *netsim.Link
	CoordLink *netsim.Link
	AgentCli  *ctlchan.Client
	CoordCli  *ctlchan.Client
	Agent     *core.Agent

	// RouteHandles maps each remote destination installed by this
	// node's prologue to its route-table entry handle — handles are
	// switch-level, so the coordinator's session can ModifyEntry them
	// for ECMP-exclude reroutes. Leaf nodes only (spines route each
	// destination straight to its leaf and are never rerouted).
	RouteHandles map[uint32]rmt.EntryHandle

	// GrayDet is the leaf's per-uplink gray-failure detector (nil on
	// spines).
	GrayDet *usecases.GrayDetector
}

// Fabric is a built topology plus its coordinator.
type Fabric struct {
	Sim    *sim.Simulator
	Cfg    Config
	Leaves []*Node
	Spines []*Node
	// Trunks[l][s] joins leaf l (side 0) to spine s (side 1).
	Trunks [][]*netsim.Trunk
	Coord  *Coordinator

	// crashed tracks nodes taken down by Crash (by name).
	crashed map[string]bool
	// hbTicker drives the per-trunk probe heartbeats; hbSrc/hbDst/
	// hbProto are the spine-schema fields probes are stamped with.
	hbTicker *sim.Ticker
	hbSrc    packet.FieldID
	hbDst    packet.FieldID
	hbProto  packet.FieldID
}

// Build constructs the fabric on s: switches, trunks, per-node control
// stacks, and the coordinator. Agents are not yet started — register
// natives on the nodes first, then call Start.
func Build(s *sim.Simulator, cfg Config) (*Fabric, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	opts := compiler.DefaultOptions()
	if cfg.Target != "none" {
		opts.Target = cfg.Target
	}
	leafPlan, err := compiler.CompileSource(LeafP4R, opts)
	if err != nil {
		return nil, fmt.Errorf("fabric: leaf program: %w", err)
	}
	spinePlan, err := compiler.CompileSource(cfg.SpineProgram, opts)
	if err != nil {
		return nil, fmt.Errorf("fabric: spine program: %w", err)
	}
	// Trunks re-serialize only wire headers across switches, so the two
	// roles need identical wire layouts but may synthesize different
	// switch-local scratch. Check up front for a clearer error than the
	// first ConnectTrunk would give.
	if err := netsim.WireCompatible(leafPlan.Prog.Schema, spinePlan.Prog.Schema); err != nil {
		return nil, fmt.Errorf("fabric: leaf/spine wire headers diverge (a packet could not cross roles): %w", err)
	}

	f := &Fabric{Sim: s, Cfg: cfg, crashed: make(map[string]bool)}
	f.Coord = newCoordinator(s, cfg.Coordinator)
	for l := 0; l < cfg.Leaves; l++ {
		n, err := f.buildNode(fmt.Sprintf("leaf%d", l), l, false, leafPlan)
		if err != nil {
			return nil, err
		}
		f.Leaves = append(f.Leaves, n)
	}
	for sp := 0; sp < cfg.Spines; sp++ {
		n, err := f.buildNode(fmt.Sprintf("spine%d", sp), sp, true, spinePlan)
		if err != nil {
			return nil, err
		}
		f.Spines = append(f.Spines, n)
	}
	for l, leaf := range f.Leaves {
		row := make([]*netsim.Trunk, cfg.Spines)
		for sp, spine := range f.Spines {
			tr, err := netsim.ConnectTrunk(leaf.Net, f.UplinkPort(sp), spine.Net, l,
				trunkDelay, faults.LinkProfile{}, cfg.Seed*7919+int64(l*64+sp))
			if err != nil {
				return nil, err
			}
			row[sp] = tr
		}
		f.Trunks = append(f.Trunks, row)
	}
	if err := f.wireGrayDetection(spinePlan.Prog.Schema); err != nil {
		return nil, err
	}
	f.Coord.attach(f)
	return f, nil
}

// wireGrayDetection registers the Fig. 16 detector on every leaf,
// monitoring the uplink ports, and prepares the probe-heartbeat fields
// (the tickers start with the fabric).
func (f *Fabric) wireGrayDetection(spineSchema *packet.Schema) error {
	cfg := &f.Cfg
	f.hbSrc = spineSchema.MustID(usecases.FM.Src)
	f.hbDst = spineSchema.MustID(usecases.FM.Dst)
	f.hbProto = spineSchema.MustID(usecases.FM.Proto)
	uplinks := make([]int, cfg.Spines)
	for sp := range uplinks {
		uplinks[sp] = f.UplinkPort(sp)
	}
	for _, leaf := range f.Leaves {
		// Channel-evidence gating: a retransmit or timeout on the leaf's
		// own agent channel since the last poll marks the window
		// unjudgeable (its register reads may be dedup-cache stale).
		ch := leaf.AgentCli
		var lastRetx, lastTimeouts uint64
		skip := func() bool {
			st := ch.ChanStats()
			dirty := st.Retransmits != lastRetx || st.Timeouts != lastTimeouts
			lastRetx, lastTimeouts = st.Retransmits, st.Timeouts
			return dirty
		}
		det := usecases.NewGrayDetector(usecases.GrayConfig{
			Ts: grayTs, Eta: grayEta, HealEta: grayHealEta,
			ConsecutiveStrikes: grayStrikes, RecoverStrikes: grayRecoverStrikes,
			SkipWindow: skip,
			Monitored:  uplinks,
			Event:      EventGraySuspect, ClearEvent: EventGrayClear,
		}, nil)
		if err := leaf.Agent.RegisterNativeReaction("gray_react", det.React); err != nil {
			return fmt.Errorf("fabric: %s: %w", leaf.Name, err)
		}
		leaf.GrayDet = det
	}
	return nil
}

// startHeartbeats launches the per-trunk probe ticker: every Ts, each
// live spine emits one probe per leaf trunk. Probes are injected at
// the trunk itself (port-hardware liveness probes, BFD-style), so they
// see exactly the drops data packets would on that trunk, without
// consuming spine pipeline capacity. Their destination is deliberately
// unroutable: the leaf's hb_tbl counts and absorbs them, and if that
// entry is not installed yet the route table's default drops them.
func (f *Fabric) startHeartbeats() {
	if f.hbTicker != nil {
		return
	}
	f.hbTicker = f.Sim.Every(grayTs, func() {
		for sp, spine := range f.Spines {
			if f.crashed[spine.Name] {
				continue
			}
			for l := range f.Leaves {
				pkt := spine.Net.NewPacket()
				pkt.Size = 64
				pkt.Priority = 7
				pkt.Set(f.hbSrc, uint64(0x0AFE0000|uint32(sp)))
				pkt.Set(f.hbDst, 0xFFFFFFFF)
				pkt.Set(f.hbProto, HeartbeatProto)
				f.Trunks[l][sp].Inject(1, pkt)
			}
		}
	})
}

// buildNode assembles one switch plus its control stack.
func (f *Fabric) buildNode(name string, idx int, isSpine bool, plan *compiler.Plan) (*Node, error) {
	cfg := &f.Cfg
	need := cfg.HostPorts + cfg.Spines
	if isSpine {
		// One extra port beyond the leaf-facing ones: the border port,
		// where traffic from outside the fabric enters.
		need = cfg.Leaves + 1
	}
	swCfg := rmt.DefaultConfig()
	if swCfg.NumPorts < need {
		swCfg.NumPorts = need
	}
	sw, err := rmt.New(f.Sim, plan.Prog, swCfg)
	if err != nil {
		return nil, fmt.Errorf("fabric: %s: %w", name, err)
	}
	n := &Node{Name: name, Index: idx, IsSpine: isSpine, Plan: plan, Sw: sw}
	n.Drv = driver.New(f.Sim, sw, driver.DefaultCostModel())
	n.Svc = ctlplane.New(f.Sim, n.Drv, ctlplane.Options{})
	agentSess, err := n.Svc.Open(ctlplane.SessionOptions{
		Name: name + "/agent", Role: ctlplane.RolePrimary, ElectionID: 1,
	})
	if err != nil {
		return nil, err
	}
	coordSess, err := n.Svc.Open(ctlplane.SessionOptions{
		Name: name + "/coord", Role: ctlplane.RoleLegacy,
	})
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed*104729 + int64(idx)*31
	if isSpine {
		seed += 17
	}
	n.Srv = ctlchan.NewServer(f.Sim)
	n.AgentLink = netsim.NewLink(f.Sim, cfg.CtlDelay, cfg.CtlProfile, seed+1)
	n.CoordLink = netsim.NewLink(f.Sim, cfg.CtlDelay, cfg.CtlProfile, seed+2)
	n.Srv.Attach(n.AgentLink, netsim.LinkSideB, 1, 1, agentSess)
	n.Srv.Attach(n.CoordLink, netsim.LinkSideB, 2, 1, coordSess)
	n.AgentCli = ctlchan.NewClient(f.Sim, n.AgentLink, netsim.LinkSideA,
		ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: n.Drv, OpDeadline: cfg.CtlOpDeadline})
	n.CoordCli = ctlchan.NewClient(f.Sim, n.CoordLink, netsim.LinkSideA,
		ctlchan.ClientOptions{Session: 2, Epoch: 1, Meta: n.Drv, OpDeadline: cfg.CtlOpDeadline})
	n.Net = netsim.New(f.Sim, sw, hostBandwidth, hostPropagation)

	n.Agent = core.NewAgent(f.Sim, n.AgentCli, plan, core.Options{
		Name:      name,
		EventSink: f.Coord.Observe,
		Pacing:    cfg.Pacing,
		Recovery:  core.RecoveryForChannel(n.AgentCli.RTT()),
		Journal:   &core.JournalConfig{Store: journal.NewMemStore()},
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			return f.installRoutes(n, p, a)
		},
	})
	return n, nil
}

// installRoutes populates n's route table with every fabric host
// address: local hosts out their port, remote hosts toward the
// dst-hashed spine, spine entries toward the destination leaf.
func (f *Fabric) installRoutes(n *Node, p *sim.Proc, a *core.Agent) error {
	if !n.IsSpine {
		n.RouteHandles = make(map[uint32]rmt.EntryHandle)
		// Count-and-absorb probe heartbeats per ingress port.
		if _, err := a.Driver().AddEntry(p, HeartbeatTable, rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(HeartbeatProto)}, Action: HeartbeatAction,
		}); err != nil {
			return fmt.Errorf("fabric: %s: heartbeat table: %w", n.Name, err)
		}
	}
	for l := 0; l < f.Cfg.Leaves; l++ {
		for h := 0; h < f.Cfg.HostPorts; h++ {
			dst := HostAddr(l, h)
			remote := false
			var port int
			switch {
			case n.IsSpine:
				port = l
			case n.Index == l:
				port = h
			default:
				remote = true
				port = f.UplinkPort(f.SpineFor(dst))
			}
			handle, err := a.Driver().AddEntry(p, RouteTable, rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(uint64(dst))}, Action: RouteAction, Data: []uint64{uint64(port)},
			})
			if err != nil {
				return fmt.Errorf("fabric: %s: route %#x: %w", n.Name, dst, err)
			}
			if remote {
				n.RouteHandles[dst] = handle
			}
		}
	}
	return nil
}

// UplinkPort is the leaf port facing spine sp.
func (f *Fabric) UplinkPort(sp int) int { return f.Cfg.HostPorts + sp }

// SpineFor picks the spine carrying traffic toward dst with every
// uplink live (destination-hashed ECMP, deterministic).
func (f *Fabric) SpineFor(dst uint32) int { return SpineForSet(dst, f.Cfg.Spines, nil) }

// SpineForSet picks the ECMP spine for dst over the live uplink set:
// rendezvous (highest-random-weight) hashing across the non-excluded
// spines. Two properties the fabric leans on: the choice is a pure
// function of (dst, spines, excluded) — identical across nodes and
// runs — and membership changes disturb only the flows that must move
// (excluding a spine reassigns exactly the flows hashed onto it;
// restoring it puts exactly those flows back). If every spine is
// excluded the full set is used as a fallback: no reachable spine is
// worse than a deterministic guess.
func SpineForSet(dst uint32, spines int, excluded map[int]bool) int {
	if spines <= 1 {
		return 0
	}
	best, bestW := -1, uint64(0)
	for sp := 0; sp < spines; sp++ {
		if excluded[sp] {
			continue
		}
		w := ecmpMix(uint64(dst)<<16 ^ uint64(sp))
		if best < 0 || w > bestW {
			best, bestW = sp, w
		}
	}
	if best < 0 {
		// All uplinks down: fall back to the full set.
		return SpineForSet(dst, spines, nil)
	}
	return best
}

// ecmpMix is the rendezvous weight function — splitmix64's finalizer,
// a fixed full-avalanche mixer (seedless on purpose: every node must
// agree on the hash).
func ecmpMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// BorderPort is the spine port where external (non-fabric) traffic
// enters.
func (f *Fabric) BorderPort() int { return f.Cfg.Leaves }

// Nodes returns all nodes, leaves first — the coordinator's canonical
// order.
func (f *Fabric) Nodes() []*Node {
	out := make([]*Node, 0, len(f.Leaves)+len(f.Spines))
	out = append(out, f.Leaves...)
	return append(out, f.Spines...)
}

// Node returns the named node, or nil.
func (f *Fabric) Node(name string) *Node {
	for _, n := range f.Nodes() {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Start launches every node's agent, the probe heartbeats, and the
// coordinator.
func (f *Fabric) Start() {
	for _, n := range f.Nodes() {
		n.Agent.Start()
	}
	f.startHeartbeats()
}

// Stop stops all agents and the coordinator's processes.
func (f *Fabric) Stop() {
	for _, n := range f.Nodes() {
		if !f.crashed[n.Name] {
			n.Agent.Stop()
		}
	}
	if f.hbTicker != nil {
		f.hbTicker.Stop()
		f.hbTicker = nil
	}
	f.Coord.stop()
}

// Crash kills a node whole: every trunk administratively down, both
// control-channel server endpoints dead (clients classify the degrade
// as peer-dead, not partition), the agent halted, and — for spines —
// probe emission stopped. The data-plane evidence of the crash is what
// the per-leaf detectors see: every probe on the node's trunks dies.
func (f *Fabric) Crash(name string) error {
	n := f.Node(name)
	if n == nil {
		return fmt.Errorf("fabric: no node %q", name)
	}
	if f.crashed[name] {
		return fmt.Errorf("fabric: %s already crashed", name)
	}
	f.crashed[name] = true
	f.eachTrunk(n, func(tr *netsim.Trunk) { tr.SetAdminDown(true) })
	n.AgentLink.SetPeerDown(netsim.LinkSideB, true)
	n.CoordLink.SetPeerDown(netsim.LinkSideB, true)
	n.Agent.Stop()
	return nil
}

// Restore brings a crashed node's hardware back: trunks up, control
// endpoints alive, probes flowing again. The agent is NOT restarted —
// switch table state survives the model's crash (the route/filter
// tables live in the switch, not the agent), and agent-level recovery
// is the takeover machinery's job, not the fabric's. The coordinator's
// session resumes working immediately.
func (f *Fabric) Restore(name string) error {
	n := f.Node(name)
	if n == nil {
		return fmt.Errorf("fabric: no node %q", name)
	}
	if !f.crashed[name] {
		return fmt.Errorf("fabric: %s not crashed", name)
	}
	delete(f.crashed, name)
	f.eachTrunk(n, func(tr *netsim.Trunk) { tr.SetAdminDown(false) })
	n.AgentLink.SetPeerDown(netsim.LinkSideB, false)
	n.CoordLink.SetPeerDown(netsim.LinkSideB, false)
	return nil
}

// eachTrunk visits every trunk touching n.
func (f *Fabric) eachTrunk(n *Node, fn func(tr *netsim.Trunk)) {
	if n.IsSpine {
		for l := range f.Leaves {
			fn(f.Trunks[l][n.Index])
		}
		return
	}
	for sp := range f.Spines {
		fn(f.Trunks[n.Index][sp])
	}
}

// Err returns the first agent error, if any.
func (f *Fabric) Err() error {
	for _, n := range f.Nodes() {
		if err := n.Agent.Err(); err != nil {
			return fmt.Errorf("%s: %w", n.Name, err)
		}
	}
	return nil
}
