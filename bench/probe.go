package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/driver"
	"repro/internal/journal"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// This file is the whole of the benchmark's instrumentation: pass-through
// driver.Channel recorders for the three boundaries the control stack
// exposes, a counting journal.Store, and the span buffer they fill. A
// change to the op vocabulary of driver.Channel changes this file only.

// layer names where a span was recorded. A span's layer is the module
// whose cost it measures: the recorder between the agent and
// ctlchan.Client times what ctlchan (and everything below it) costs.
type layer int

const (
	layerCore     layer = iota // one span per op, opened by the world
	layerCtlchan               // agent ↔ ctlchan.Client
	layerCtlplane              // ctlchan.Server ↔ ctlplane.Session
	layerDriver                // ctlplane.Service (or a raw agent) ↔ driver.Driver
	numLayers
)

var layerNames = [numLayers]string{"core", "ctlchan", "ctlplane", "driver"}

// verb indexes verbNames: spans hold no pointers, so the collector never
// scans the span buffer (with strings in it, marking the buffer on every
// cycle cost the traced pass more than the recorders themselves).
type verb uint8

const (
	verbOp verb = iota
	verbAddEntry
	verbModifyEntry
	verbDeleteEntry
	verbSetDefaultAction
	verbSetHashSeed
	verbRegWrite
	verbRegRead
	verbBatchRead
	verbUnbatchedRead
	verbReadEntries
	verbReadDefaultAction
	verbBatchReadInto
)

var verbNames = [...]string{"op", "AddEntry", "ModifyEntry", "DeleteEntry", "SetDefaultAction", "SetHashSeed",
	"RegWrite", "RegRead", "BatchRead", "UnbatchedRead", "ReadEntries", "ReadDefaultAction", "BatchReadInto"}

// span is one recorded call: Chrome's "complete" event on the virtual
// axis, with the host interval alongside.
type span struct {
	name           verb
	layer          layer
	op             uint64
	vstart, vend   sim.Time
	hstart, hendNs int64 // host ns since probe.begin
}

// frame is the open call of one layer. A layer has at most one: the
// agent, the ctlchan server and the ctlplane dispatcher are each one
// sequential process.
type frame struct {
	open           bool
	id             uint64
	name           verb
	vstart         sim.Time
	hstart         int64
	childV, childH int64
	parentLayer    layer // numLayers when the call had no open caller
	parentID       uint64
}

// maxSpans bounds the span file; self times and counts are aggregated
// as calls return and keep going after the buffer is full.
const maxSpans = 1 << 16

// probe aggregates the spans of one traced pass.
type probe struct {
	now    func() sim.Time
	epoch  time.Time
	active bool

	frames [numLayers]frame
	nextID uint64
	op     uint64

	spans []span

	selfVirt [numLayers]int64
	selfHost [numLayers]int64
	calls    [numLayers]uint64
	// orphanVirt is virtual time of calls whose caller had already
	// returned (a request executed after its client gave up on it).
	orphanVirt int64
	// reentered counts calls that found their layer already open; the
	// one-frame-per-layer model is wrong if it is ever non-zero.
	reentered uint64
	// opVirt is the summed virtual duration of closed ops.
	opVirt int64
}

func newProbe() *probe {
	return &probe{spans: make([]span, 0, maxSpans)}
}

// attach points the probe at a world's clock. A probe observes one world.
func (pr *probe) attach(s *sim.Simulator) { pr.now = s.Now }

func (pr *probe) hostNow() int64 { return int64(time.Since(pr.epoch)) }

// begin starts recording; the first op opens now.
func (pr *probe) begin() {
	pr.epoch = time.Now()
	pr.active = true
	pr.openOp(pr.now())
}

// end stops recording. The op in flight is dropped, not closed: the
// timed region ends on an op boundary.
func (pr *probe) end() {
	pr.active = false
	pr.frames[layerCore].open = false
}

func (pr *probe) openOp(at sim.Time) {
	f := &pr.frames[layerCore]
	pr.nextID++
	*f = frame{open: true, id: pr.nextID, name: verbOp, vstart: at, hstart: pr.hostNow(),
		parentLayer: numLayers}
}

// opBoundary closes the current op at the present instant and opens the
// next one after gap of virtual time (the agent's pacing sleep, which is
// nobody's cost).
func (pr *probe) opBoundary(gap time.Duration) {
	if pr == nil || !pr.active {
		return
	}
	f := &pr.frames[layerCore]
	pr.opVirt += int64(pr.now().Sub(f.vstart))
	pr.close(layerCore, f)
	pr.op++
	pr.openOp(pr.now().Add(gap))
}

// enter opens a call on l; nil means "not recording".
func (pr *probe) enter(l layer, name verb) *frame {
	if !pr.active {
		return nil
	}
	f := &pr.frames[l]
	if f.open {
		pr.reentered++
		return nil
	}
	pr.nextID++
	*f = frame{open: true, id: pr.nextID, name: name, vstart: pr.now(), hstart: pr.hostNow(),
		parentLayer: numLayers}
	for pl := l - 1; pl >= 0; pl-- {
		if pf := &pr.frames[pl]; pf.open {
			f.parentLayer, f.parentID = pl, pf.id
			break
		}
	}
	return f
}

func (pr *probe) leave(l layer, f *frame) {
	if f == nil {
		return
	}
	pr.close(l, f)
}

// close settles a frame: its self time is its duration less what its
// children covered, and its duration is charged to its caller if that
// caller is still the one waiting.
func (pr *probe) close(l layer, f *frame) {
	vend, hend := pr.now(), pr.hostNow()
	vdur, hdur := int64(vend.Sub(f.vstart)), hend-f.hstart
	pr.selfVirt[l] += vdur - f.childV
	pr.selfHost[l] += hdur - f.childH
	pr.calls[l]++

	if f.parentLayer < numLayers {
		pf := &pr.frames[f.parentLayer]
		if pf.open && pf.id == f.parentID {
			pf.childV += vdur
			pf.childH += hdur
		} else {
			pr.orphanVirt += vdur
		}
	} else if l != layerCore {
		pr.orphanVirt += vdur
	}
	if len(pr.spans) < cap(pr.spans) {
		pr.spans = append(pr.spans, span{
			name: f.name, layer: l, op: pr.op,
			vstart: f.vstart, vend: vend, hstart: f.hstart, hendNs: hend,
		})
	}
	f.open = false
}

// writeTrace writes the buffered spans as Chrome trace events on the
// virtual-time axis.
func (pr *probe) writeTrace(path string) error {
	type args struct {
		Op     uint64 `json:"op"`
		Parent int    `json:"parent"`
		HostNs int64  `json:"host_ns"`
		HostAt int64  `json:"host_start_ns"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		ID   int     `json:"id"`
		Args args    `json:"args"`
	}
	// Spans are appended as they close, so a child precedes its parent:
	// the parent is the first later span of a shallower layer whose
	// interval contains the child's.
	parents := make([]int, len(pr.spans))
	for i := range pr.spans {
		parents[i] = -1
		c := &pr.spans[i]
		for j := i + 1; j < len(pr.spans); j++ {
			p := &pr.spans[j]
			if p.layer < c.layer && p.vstart <= c.vstart && p.vend >= c.vend && p.hstart <= c.hstart {
				parents[i] = j
				break
			}
			if p.layer == layerCore {
				break
			}
		}
	}
	events := make([]event, len(pr.spans))
	for i, sp := range pr.spans {
		events[i] = event{
			Name: verbNames[sp.name], Cat: layerNames[sp.layer], Ph: "X",
			Ts:  float64(sp.vstart) / 1e3,
			Dur: float64(sp.vend.Sub(sp.vstart)) / 1e3,
			Pid: 1, Tid: int(sp.layer), ID: i,
			Args: args{Op: sp.op, Parent: parents[i], HostNs: sp.hendNs - sp.hstart, HostAt: sp.hstart},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"displayTimeUnit": "ns", "traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// recorder is a pass-through driver.Channel that times every call on
// one layer. It adds no virtual time and changes no result.
type recorder struct {
	pr *probe
	l  layer
	in driver.Channel
}

// rangeRecorder is a recorder over a channel with the allocation-free
// read extension; only it forwards BatchReadInto, so a recorder never
// grants or hides the agent's fast path.
type rangeRecorder struct {
	recorder
	rr driver.RangeReader
}

// record wraps in with a recorder on l. With a nil probe it returns in
// untouched: the untraced run has no recorder in its stack at all.
func (pr *probe) record(l layer, in driver.Channel) driver.Channel {
	if pr == nil {
		return in
	}
	r := recorder{pr: pr, l: l, in: in}
	if rr, ok := in.(driver.RangeReader); ok {
		return &rangeRecorder{recorder: r, rr: rr}
	}
	return &r
}

func (r *recorder) AddEntry(p *sim.Proc, table string, e rmt.Entry) (rmt.EntryHandle, error) {
	f := r.pr.enter(r.l, verbAddEntry)
	h, err := r.in.AddEntry(p, table, e)
	r.pr.leave(r.l, f)
	return h, err
}

func (r *recorder) ModifyEntry(p *sim.Proc, table string, h rmt.EntryHandle, action string, data []uint64) error {
	f := r.pr.enter(r.l, verbModifyEntry)
	err := r.in.ModifyEntry(p, table, h, action, data)
	r.pr.leave(r.l, f)
	return err
}

func (r *recorder) DeleteEntry(p *sim.Proc, table string, h rmt.EntryHandle) error {
	f := r.pr.enter(r.l, verbDeleteEntry)
	err := r.in.DeleteEntry(p, table, h)
	r.pr.leave(r.l, f)
	return err
}

func (r *recorder) SetDefaultAction(p *sim.Proc, table string, call *p4.ActionCall) error {
	f := r.pr.enter(r.l, verbSetDefaultAction)
	err := r.in.SetDefaultAction(p, table, call)
	r.pr.leave(r.l, f)
	return err
}

func (r *recorder) SetHashSeed(p *sim.Proc, name string, seed uint64) error {
	f := r.pr.enter(r.l, verbSetHashSeed)
	err := r.in.SetHashSeed(p, name, seed)
	r.pr.leave(r.l, f)
	return err
}

func (r *recorder) RegWrite(p *sim.Proc, reg string, idx uint64, v uint64) error {
	f := r.pr.enter(r.l, verbRegWrite)
	err := r.in.RegWrite(p, reg, idx, v)
	r.pr.leave(r.l, f)
	return err
}

func (r *recorder) RegRead(p *sim.Proc, reg string, idx uint64) (uint64, error) {
	f := r.pr.enter(r.l, verbRegRead)
	v, err := r.in.RegRead(p, reg, idx)
	r.pr.leave(r.l, f)
	return v, err
}

func (r *recorder) BatchRead(p *sim.Proc, reqs []driver.ReadReq) ([][]uint64, error) {
	f := r.pr.enter(r.l, verbBatchRead)
	v, err := r.in.BatchRead(p, reqs)
	r.pr.leave(r.l, f)
	return v, err
}

func (r *recorder) UnbatchedRead(p *sim.Proc, reqs []driver.ReadReq) ([][]uint64, error) {
	f := r.pr.enter(r.l, verbUnbatchedRead)
	v, err := r.in.UnbatchedRead(p, reqs)
	r.pr.leave(r.l, f)
	return v, err
}

func (r *recorder) ReadEntries(p *sim.Proc, table string) ([]rmt.Entry, error) {
	f := r.pr.enter(r.l, verbReadEntries)
	v, err := r.in.ReadEntries(p, table)
	r.pr.leave(r.l, f)
	return v, err
}

func (r *recorder) ReadDefaultAction(p *sim.Proc, table string) (*p4.ActionCall, error) {
	f := r.pr.enter(r.l, verbReadDefaultAction)
	v, err := r.in.ReadDefaultAction(p, table)
	r.pr.leave(r.l, f)
	return v, err
}

func (r *rangeRecorder) BatchReadInto(p *sim.Proc, reqs []driver.ReadReq, dst [][]uint64) error {
	f := r.pr.enter(r.l, verbBatchReadInto)
	err := r.rr.BatchReadInto(p, reqs, dst)
	r.pr.leave(r.l, f)
	return err
}

// Memoize, Switch and Stats take no channel time and record no span.
func (r *recorder) Memoize(table string, h rmt.EntryHandle) { r.in.Memoize(table, h) }
func (r *recorder) Switch() *rmt.Switch                     { return r.in.Switch() }
func (r *recorder) Stats() driver.Stats                     { return r.in.Stats() }

// countingStore counts journal writes and samples their encoded size.
type countingStore struct {
	journal.Store
	writes  uint64
	sampled uint64
	bytes   uint64 // encoded bytes of the sampled writes
}

// sizeEvery is the sampling stride for record sizes: encoding every
// record a second time would double the journal's cost in the traced run.
const sizeEvery = 64

func (c *countingStore) size(v any) {
	c.writes++
	if c.writes%sizeEvery != 1 {
		return
	}
	if b, err := json.Marshal(v); err == nil {
		c.sampled++
		c.bytes += uint64(len(b))
	}
}

func (c *countingStore) SaveCheckpoint(cp *journal.Checkpoint) error {
	c.size(cp)
	return c.Store.SaveCheckpoint(cp)
}

func (c *countingStore) WriteIntent(it *journal.Intent) error {
	c.size(it)
	return c.Store.WriteIntent(it)
}

// bytesWritten estimates total encoded bytes from the sampled mean.
func (c *countingStore) bytesWritten() float64 {
	if c.sampled == 0 {
		return 0
	}
	return float64(c.bytes) / float64(c.sampled) * float64(c.writes)
}

// consistent checks a traced pass against itself: every layer's virtual
// self time must add up to the latency the harness sampled, to the
// nanosecond, and the host self times to the traced wall clock within 5%.
func (pr *probe) consistent(hr *hostRun) error {
	if pr.reentered != 0 {
		return fmt.Errorf("%d calls found their layer already open", pr.reentered)
	}
	var sumV, sumH, sampled int64
	for l := layerCore; l < numLayers; l++ {
		sumV += pr.selfVirt[l]
		sumH += pr.selfHost[l]
	}
	for _, s := range hr.res.samples {
		sampled += s
	}
	if sumV != sampled {
		return fmt.Errorf("virtual self times sum to %d ns, the sampled reaction latencies to %d ns", sumV, sampled)
	}
	if wall := int64(hr.elapsed); sumH < wall-wall/20 || sumH > wall+wall/20 {
		return fmt.Errorf("host self times sum to %d ns, the timed region took %d ns", sumH, wall)
	}
	return nil
}
