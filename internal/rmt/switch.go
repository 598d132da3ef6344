// Package rmt models a Reconfigurable Match Table (RMT) switch ASIC: the
// execution substrate the Mantis paper targets (a Tofino-based
// Wedge100BF-32X in the original evaluation).
//
// The model executes a p4.Program over packets on a shared virtual
// clock. It reproduces the properties the paper's mechanisms depend on:
//
//   - Packets traverse a pipeline with a fixed latency; packets that
//     entered before a configuration change complete under the old
//     configuration (the model processes each packet's pipeline pass
//     atomically, which is the per-packet consistency real ASICs give).
//   - Control-plane operations mutate exactly one table entry, default
//     action, or register cell at a time — single-entry atomicity, the
//     primitive Mantis builds its serializable three-phase protocol on.
//   - Stateful SRAM registers are readable/writable from the data plane
//     and pollable from the control plane.
//   - Egress ports have finite queues drained at link bandwidth, so
//     queue depth, loss, and congestion are observable — required by the
//     hash-polarization and RL use cases.
//
// Latency and contention of the control channel (PCIe) are modeled in
// internal/driver, which wraps the instantaneous mutators defined here.
package rmt

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config sets the physical parameters of the modeled switch.
type Config struct {
	// NumPorts is the number of front-panel ports.
	NumPorts int
	// QueueCapacity is the per-port egress queue depth, in packets.
	QueueCapacity int
	// PortBandwidth is the drain rate of each port in bits per second.
	PortBandwidth float64
	// MaxRecirculations bounds recirculation loops (safety net).
	MaxRecirculations int
	// IngressCapacityPPS bounds the packet rate the ingress pipeline can
	// process (0 = unlimited). Recirculated packets consume the same
	// capacity as fresh arrivals — the cost §2 quantifies ("recirculating
	// every packet twice drops usable throughput to 38%").
	IngressCapacityPPS float64
}

// DefaultConfig matches the paper's testbed scale: a 32x25Gbps switch.
func DefaultConfig() Config {
	return Config{
		NumPorts:          32,
		QueueCapacity:     256,
		PortBandwidth:     25e9,
		MaxRecirculations: 4,
	}
}

// pipelineLatency is the time from ingress MAC to egress queue admission
// (100s of ns on real hardware); one recirculation pass costs the same
// again.
const pipelineLatency = 400 * time.Nanosecond

// Stats aggregates switch-level counters.
type Stats struct {
	RxPackets    uint64
	TxPackets    uint64
	IngressDrops uint64 // dropped by a data-plane drop() action
	QueueDrops   uint64 // tail drops at full egress queues
	// PortDownDrops is always 0: a switch port has no down state (a
	// failed link is a netsim trunk's). It stays because bench/ reads it.
	PortDownDrops uint64
	Recirculated  uint64
}

// port models one egress port: a priority queue drained at link
// bandwidth. The queue is a sliding window [head, head+n) over a
// fixed-capacity buffer allocated at switch construction, so enqueue
// and drain never allocate; the window compacts to the front when it
// reaches the end of the buffer.
type port struct {
	buf     []*packet.Packet
	head, n int
	busy    bool
	// bandwidth overrides Config.PortBandwidth when > 0.
	bandwidth float64
}

// Switch is a running RMT switch instance executing one program.
type Switch struct {
	sim  *sim.Simulator
	prog *p4.Program
	cfg  Config

	tables    map[string]*tableInstance
	registers map[string]*registerInstance

	// Hash calculations are resolved to slice indices at New() so the
	// data plane reads seeds and definitions without map lookups.
	hashIndex map[string]int
	hashDefs  []*p4.HashCalc
	hashSeeds []uint64

	// actionCode holds the compiled body of every program action.
	actionCode map[string]*caction

	// ingressProg/egressProg are the control flows compiled to flat
	// instruction slices (see compiled.go).
	ingressProg []instr
	egressProg  []instr

	ports []*port

	// env is the reusable per-packet execution environment. Pipeline
	// passes are atomic and the simulator is single-threaded, so one
	// environment per switch suffices; reusing it keeps the per-packet
	// path allocation-free.
	env execEnv

	// enqueueFn/txDoneFn/admitFn/ingressFn are the per-packet event
	// callbacks, bound once so scheduling them (via sim.ScheduleCall)
	// does not allocate a closure per packet.
	enqueueFn func(any)
	txDoneFn  func(any)
	admitFn   func(any)
	ingressFn func(any)

	// Tx is invoked when a packet leaves a port (after egress pipeline
	// and serialization) and takes ownership of it. The netsim layer
	// wires this to links.
	Tx func(portN int, pkt *packet.Packet)
	// Pool, if set, takes back every packet whose life ends inside the
	// switch: each drop, and a transmit with no Tx. netsim.New is its one
	// setter; with nil the packet is left to the garbage collector.
	Pool *packet.Pool

	stats Stats

	// ingressBusyUntil serializes pipeline admission when
	// IngressCapacityPPS is set.
	ingressBusyUntil sim.Time

	// cached standard-metadata field IDs
	fIngressPort, fEgressSpec, fPacketLen packet.FieldID
	fTimestamp, fEnqQdepth, fEgressPort   packet.FieldID
	fPriority                             packet.FieldID
}

// New instantiates a switch running prog. The program must validate.
func New(s *sim.Simulator, prog *p4.Program, cfg Config) (*Switch, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("rmt: invalid program: %w", err)
	}
	if cfg.NumPorts <= 0 {
		return nil, fmt.Errorf("rmt: NumPorts must be positive")
	}
	if cfg.QueueCapacity < 0 {
		cfg.QueueCapacity = 0
	}
	sw := &Switch{
		sim:       s,
		prog:      prog,
		cfg:       cfg,
		tables:    make(map[string]*tableInstance),
		registers: make(map[string]*registerInstance),
		hashIndex: make(map[string]int),
	}
	for name, def := range prog.Registers {
		sw.registers[name] = newRegisterInstance(def)
	}
	hashNames := make([]string, 0, len(prog.Hashes))
	for name := range prog.Hashes {
		hashNames = append(hashNames, name)
	}
	sort.Strings(hashNames)
	for _, name := range hashNames {
		sw.hashIndex[name] = len(sw.hashDefs)
		sw.hashDefs = append(sw.hashDefs, prog.Hashes[name])
		sw.hashSeeds = append(sw.hashSeeds, 0)
	}
	sw.actionCode = make(map[string]*caction, len(prog.Actions))
	for name, a := range prog.Actions {
		sw.actionCode[name] = sw.compileAction(a)
	}
	for name, def := range prog.Tables {
		ti := newTableInstance(prog, def)
		ti.codeOf = sw.actionCode
		if ti.defaultAction != nil {
			ti.defaultCode = sw.actionCode[ti.defaultAction.Action]
		}
		sw.tables[name] = ti
	}
	sw.ingressProg = sw.compileControl(nil, prog.Ingress)
	sw.egressProg = sw.compileControl(nil, prog.Egress)
	sw.ports = make([]*port, cfg.NumPorts)
	for i := range sw.ports {
		sw.ports[i] = &port{buf: make([]*packet.Packet, cfg.QueueCapacity)}
	}
	sw.enqueueFn = sw.enqueueArg
	sw.txDoneFn = sw.txDoneArg
	sw.admitFn = sw.admitArg
	sw.ingressFn = sw.runIngressArg
	mustID := func(name string) packet.FieldID { return prog.Schema.MustID(name) }
	sw.fIngressPort = mustID(p4.FieldIngressPort)
	sw.fEgressSpec = mustID(p4.FieldEgressSpec)
	sw.fPacketLen = mustID(p4.FieldPacketLen)
	sw.fTimestamp = mustID(p4.FieldTimestamp)
	sw.fEnqQdepth = mustID(p4.FieldEnqQdepth)
	sw.fEgressPort = mustID(p4.FieldEgressPort)
	sw.fPriority = mustID(p4.FieldPriority)
	return sw, nil
}

// Program returns the loaded program.
func (sw *Switch) Program() *p4.Program { return sw.prog }

// Config returns the switch configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// Stats returns a copy of the aggregate counters.
func (sw *Switch) Stats() Stats { return sw.stats }

// SetPortBandwidth overrides one port's drain rate (bits per second),
// e.g. to model a 10 Gbps bottleneck on an otherwise 25 Gbps switch.
func (sw *Switch) SetPortBandwidth(portN int, bps float64) {
	sw.ports[portN].bandwidth = bps
}

// QueueDepth returns the instantaneous egress queue occupancy of a port,
// in packets.
func (sw *Switch) QueueDepth(portN int) int { return sw.ports[portN].n }

// Inject delivers a packet to the switch on the given ingress port at
// the current virtual time. Processing of the ingress pipeline happens
// immediately (atomically with respect to other events); queueing and
// egress follow on the virtual clock.
func (sw *Switch) Inject(portN int, pkt *packet.Packet) {
	if pkt.Released() {
		panic("rmt: Inject of a released packet")
	}
	sw.stats.RxPackets++
	pkt.IngressPort = portN
	sw.admit(pkt)
}

// admit schedules one ingress-pipeline pass, honoring the pipeline's
// packet-rate capacity. Fresh arrivals and recirculations share the
// capacity; the admission buffer is small (pipelines have no deep
// ingress queues), so sustained overload drops — which is what divides
// usable throughput by ~(N+1) when every packet takes N+1 passes.
func (sw *Switch) admit(pkt *packet.Packet) {
	if sw.cfg.IngressCapacityPPS <= 0 {
		sw.runIngress(pkt)
		return
	}
	slot := time.Duration(float64(time.Second) / sw.cfg.IngressCapacityPPS)
	now := sw.sim.Now()
	start := now
	if sw.ingressBusyUntil > start {
		start = sw.ingressBusyUntil
	}
	if backlog := int(start.Sub(now) / slot); backlog >= 64 {
		sw.drop(pkt, &sw.stats.IngressDrops)
		return
	}
	sw.ingressBusyUntil = start.Add(slot)
	sw.sim.AtCall(start, sw.ingressFn, pkt)
}

// admitArg/runIngressArg/enqueueArg/txDoneArg adapt the per-packet
// pipeline steps to sim.ScheduleCall's func(any) shape; they are bound
// to fields once at New() so scheduling never allocates a closure.
func (sw *Switch) admitArg(arg any)      { sw.admit(arg.(*packet.Packet)) }
func (sw *Switch) runIngressArg(arg any) { sw.runIngress(arg.(*packet.Packet)) }

func (sw *Switch) enqueueArg(arg any) {
	pkt := arg.(*packet.Packet)
	sw.enqueue(pkt.EgressPort, pkt)
}

func (sw *Switch) txDoneArg(arg any) {
	pkt := arg.(*packet.Packet)
	portN := pkt.EgressPort
	sw.finishEgress(portN, pkt)
	sw.drain(portN)
}

// resetEnv readies the shared execution environment for one pipeline
// pass over pkt.
func (sw *Switch) resetEnv(pkt *packet.Packet) *execEnv {
	env := &sw.env
	env.pkt = pkt
	env.params = nil
	env.dropped = false
	env.recirculate = false
	return env
}

func (sw *Switch) runIngress(pkt *packet.Packet) {
	pkt.Set(sw.fIngressPort, uint64(pkt.IngressPort))
	pkt.Set(sw.fPacketLen, uint64(pkt.Size))
	pkt.Set(sw.fTimestamp, uint64(sw.sim.Now()))
	pkt.Set(sw.fPriority, uint64(pkt.Priority))

	env := sw.resetEnv(pkt)
	sw.runCompiled(env, sw.ingressProg)

	if env.dropped {
		sw.drop(pkt, &sw.stats.IngressDrops)
		return
	}
	pkt.EgressPort = int(pkt.Get(sw.fEgressSpec))
	if env.recirculate {
		pkt.Recirculations++
	}
	// Traffic-manager admission happens after the ingress pipeline delay.
	sw.sim.ScheduleCall(pipelineLatency, sw.enqueueFn, pkt)
}

func (sw *Switch) enqueue(portN int, pkt *packet.Packet) {
	if portN < 0 || portN >= len(sw.ports) {
		sw.drop(pkt, &sw.stats.IngressDrops)
		return
	}
	p := sw.ports[portN]
	if p.n >= len(p.buf) {
		// Strict-priority admission: a higher-priority arrival may evict
		// the lowest-priority tail packet (how heartbeats survive a
		// congested port in the gray-failure use case).
		victim := -1
		for i := p.head + p.n - 1; i >= p.head; i-- {
			if p.buf[i].Priority < pkt.Priority {
				victim = i
				break
			}
		}
		if victim < 0 {
			sw.drop(pkt, &sw.stats.QueueDrops)
			return
		}
		sw.drop(p.buf[victim], &sw.stats.QueueDrops)
		copy(p.buf[victim:], p.buf[victim+1:p.head+p.n])
		p.n--
		p.buf[p.head+p.n] = nil
	}
	pkt.Set(sw.fEnqQdepth, uint64(p.n))
	// Slide the window back to the front when it hits the buffer end.
	if p.head+p.n == len(p.buf) && p.head > 0 {
		copy(p.buf, p.buf[p.head:p.head+p.n])
		for i := p.n; i < p.head+p.n; i++ {
			p.buf[i] = nil
		}
		p.head = 0
	}
	// Insert in strict priority order (FIFO within a priority class).
	pos := p.head + p.n
	for pos > p.head && p.buf[pos-1].Priority < pkt.Priority {
		pos--
	}
	copy(p.buf[pos+1:p.head+p.n+1], p.buf[pos:p.head+p.n])
	p.buf[pos] = pkt
	p.n++
	if !p.busy {
		sw.drain(portN)
	}
}

func (sw *Switch) drain(portN int) {
	p := sw.ports[portN]
	if p.n == 0 {
		p.busy = false
		p.head = 0
		return
	}
	p.busy = true
	pkt := p.buf[p.head]
	p.buf[p.head] = nil
	p.head++
	p.n--
	if p.n == 0 {
		p.head = 0
	}
	bw := sw.cfg.PortBandwidth
	if p.bandwidth > 0 {
		bw = p.bandwidth
	}
	txTime := time.Duration(float64(pkt.Size*8) / bw * float64(time.Second))
	if txTime <= 0 {
		txTime = time.Nanosecond
	}
	sw.sim.ScheduleCall(txTime, sw.txDoneFn, pkt)
}

func (sw *Switch) finishEgress(portN int, pkt *packet.Packet) {
	pkt.Set(sw.fEgressPort, uint64(portN))
	env := sw.resetEnv(pkt)
	sw.runCompiled(env, sw.egressProg)
	if env.dropped {
		sw.drop(pkt, &sw.stats.IngressDrops)
		return
	}
	if env.recirculate && pkt.Recirculations < sw.cfg.MaxRecirculations {
		sw.stats.Recirculated++
		pkt.Recirculations++
		sw.sim.ScheduleCall(pipelineLatency, sw.admitFn, pkt)
		return
	}
	sw.stats.TxPackets++
	if sw.Tx != nil {
		sw.Tx(portN, pkt)
		return
	}
	sw.release(pkt)
}

// drop ends pkt's life in the switch, counting it under reason.
func (sw *Switch) drop(pkt *packet.Packet, reason *uint64) {
	pkt.Dropped = true
	*reason++
	sw.release(pkt)
}

// release hands a packet whose life has ended back to Pool, if any.
func (sw *Switch) release(pkt *packet.Packet) {
	if sw.Pool != nil {
		sw.Pool.Put(pkt)
	}
}

func evalCond(env *execEnv, c *p4.CondExpr) bool {
	l, r := env.operand(&c.Left), env.operand(&c.Right)
	switch c.Op {
	case p4.CmpEQ:
		return l == r
	case p4.CmpNE:
		return l != r
	case p4.CmpLT:
		return l < r
	case p4.CmpLE:
		return l <= r
	case p4.CmpGT:
		return l > r
	case p4.CmpGE:
		return l >= r
	}
	return false
}

// execEnv is the state of one packet's pipeline pass.
type execEnv struct {
	pkt         *packet.Packet
	params      []uint64
	dropped     bool
	recirculate bool
}

// hashValue computes hash idx over pkt's fields. Written without an
// inner closure so the accumulator stays in registers on the per-packet
// path.
func (sw *Switch) hashValue(pkt *packet.Packet, idx int) uint64 {
	h := sw.hashDefs[idx]
	seed := sw.hashSeeds[idx]
	var acc uint64 = 14695981039346656037 ^ seed // FNV offset basis, seed-mixed
	if h.Algo == p4.HashIdentity {
		acc = seed
		for _, f := range h.Fields {
			acc = acc<<8 | (pkt.Get(f) & 0xFF)
		}
	} else {
		for _, f := range h.Fields {
			v := pkt.Get(f)
			for i := 0; i < 8; i++ {
				acc ^= (v >> uint(8*i)) & 0xFF
				acc *= 1099511628211
			}
		}
		if h.Algo == p4.HashCRC16 {
			acc ^= acc >> 16
		}
	}
	return acc & packet.Mask(h.Width)
}

// SetHashSeed rotates the seed of a hash calculation at runtime, the
// mechanism behind shifting ECMP hash functions (use case #3).
func (sw *Switch) SetHashSeed(name string, seed uint64) error {
	idx, ok := sw.hashIndex[name]
	if !ok {
		return fmt.Errorf("rmt: unknown hash calculation %q: %w", name, ErrUnknownHash)
	}
	sw.hashSeeds[idx] = seed
	return nil
}

// ---- Control-plane access points ----
//
// Each method below is a single atomic mutation or read of switch state,
// the granularity real drivers provide over PCIe. Latency, batching, and
// contention are modeled by internal/driver on top of these.

// AddEntry installs a table entry and returns its handle.
func (sw *Switch) AddEntry(table string, e Entry) (EntryHandle, error) {
	ti, ok := sw.tables[table]
	if !ok {
		return 0, fmt.Errorf("rmt: unknown table %q: %w", table, ErrUnknownTable)
	}
	return ti.add(e)
}

// ModifyEntry rebinds an entry's action and data.
func (sw *Switch) ModifyEntry(table string, h EntryHandle, action string, data []uint64) error {
	ti, ok := sw.tables[table]
	if !ok {
		return fmt.Errorf("rmt: unknown table %q: %w", table, ErrUnknownTable)
	}
	return ti.modify(h, action, data)
}

// DeleteEntry removes an entry.
func (sw *Switch) DeleteEntry(table string, h EntryHandle) error {
	ti, ok := sw.tables[table]
	if !ok {
		return fmt.Errorf("rmt: unknown table %q: %w", table, ErrUnknownTable)
	}
	return ti.del(h)
}

// SetDefaultAction replaces a table's miss action.
func (sw *Switch) SetDefaultAction(table string, call *p4.ActionCall) error {
	ti, ok := sw.tables[table]
	if !ok {
		return fmt.Errorf("rmt: unknown table %q: %w", table, ErrUnknownTable)
	}
	return ti.setDefault(call)
}

// DefaultAction returns a copy of a table's current miss action (nil if
// the table has none configured). This is the read side of the audit
// path: recovery derives the live vv/mv bits from the master init
// table's default-action data.
func (sw *Switch) DefaultAction(table string) (*p4.ActionCall, error) {
	ti, ok := sw.tables[table]
	if !ok {
		return nil, fmt.Errorf("rmt: unknown table %q: %w", table, ErrUnknownTable)
	}
	if ti.defaultAction == nil {
		return nil, nil
	}
	call := *ti.defaultAction
	call.Data = append([]uint64(nil), call.Data...)
	return &call, nil
}

// Entries returns a snapshot of a table's installed entries.
func (sw *Switch) Entries(table string) ([]Entry, error) {
	ti, ok := sw.tables[table]
	if !ok {
		return nil, fmt.Errorf("rmt: unknown table %q: %w", table, ErrUnknownTable)
	}
	return ti.entries(), nil
}

// LookupProbe returns a function performing raw match lookups against
// one table, bypassing action execution. This is the microbenchmark and
// diagnostics hook behind cmd/perfbench: it exposes exactly the lookup
// the data plane performs (including index selection) without the rest
// of the pipeline around it. Probes count toward the table's hit/miss
// counters like any lookup. vals must have one value per key column.
func (sw *Switch) LookupProbe(table string) (func(vals []uint64) bool, error) {
	ti, ok := sw.tables[table]
	if !ok {
		return nil, fmt.Errorf("rmt: unknown table %q: %w", table, ErrUnknownTable)
	}
	return func(vals []uint64) bool { return ti.lookup(vals) != nil }, nil
}

// RegRead reads one register cell from the control plane.
func (sw *Switch) RegRead(reg string, idx uint64) (uint64, error) {
	ri, ok := sw.registers[reg]
	if !ok {
		return 0, fmt.Errorf("rmt: unknown register %q: %w", reg, ErrUnknownRegister)
	}
	return ri.readChecked(idx)
}

// RegReadRangeInto appends cells [lo, hi) of a register array to dst and
// returns the extended slice: with cap(dst) ≥ hi-lo no heap allocation
// occurs, which the driver's batched poll path relies on.
func (sw *Switch) RegReadRangeInto(reg string, lo, hi uint64, dst []uint64) ([]uint64, error) {
	ri, ok := sw.registers[reg]
	if !ok {
		return nil, fmt.Errorf("rmt: unknown register %q: %w", reg, ErrUnknownRegister)
	}
	return ri.readRangeInto(lo, hi, dst)
}

// RegWrite writes one register cell from the control plane.
func (sw *Switch) RegWrite(reg string, idx uint64, v uint64) error {
	ri, ok := sw.registers[reg]
	if !ok {
		return fmt.Errorf("rmt: unknown register %q: %w", reg, ErrUnknownRegister)
	}
	return ri.writeChecked(idx, v)
}
