package check

import (
	"fmt"
	"slices"

	"repro/internal/compiler"
	"repro/internal/driver"
	"repro/internal/rmt"
)

// Rules holds §5's two snapshot rules on the op stream of a Tap, at
// each op as it reaches the tap:
//
//   - mv: every range of a measurement read lies in one copy, the one
//     the last mv flip froze, never the copy packets write (the live
//     mv), so all the ranges of one read address the same copy;
//   - vv: once armed, every add, modify or delete on a versioned
//     malleable table or a non-master init table addresses the shadow
//     copy, never the one packets read (the live vv).
//
// The live vv and mv are read from the master init table's default
// action on the switch below, which takes no virtual time. The rules
// never sleep, schedule or write; they keep the first violation.
type Rules struct {
	// Reads counts the measurement reads checked, Writes the versioned
	// writes checked while armed.
	Reads, Writes int

	sw         *rmt.Switch
	master     string
	vvAt, mvAt int               // the version bits' positions in the master's data
	copySize   map[string]uint64 // measurement register → instances per copy
	vvCol      map[string]int    // versioned table → its vv key column
	armed      bool
	err        error
}

// Check attaches plan's snapshot rules to t; the switch is the one the
// channel below t exposes. A plan without init tables has no versions,
// and its rules check nothing.
func (t *Tap) Check(plan *compiler.Plan) *Rules {
	r := &Rules{sw: t.Switch(), vvAt: -1, mvAt: -1, copySize: make(map[string]uint64), vvCol: make(map[string]int)}
	t.rules = r
	if len(plan.InitTables) == 0 {
		return r
	}
	r.master = plan.InitTables[0].Table
	for i, ip := range plan.InitTables[0].Params {
		switch ip.Kind {
		case compiler.InitVV:
			r.vvAt = i
		case compiler.InitMV:
			r.mvAt = i
		}
	}
	for _, it := range plan.InitTables[1:] {
		r.vvCol[it.Table] = 0 // keyed on vv alone
	}
	for _, info := range plan.MblTables {
		if info.VVCol >= 0 {
			r.vvCol[info.Table] = info.VVCol
		}
	}
	for _, rx := range plan.Reactions {
		for _, s := range slices.Concat(rx.IngSlots, rx.EgrSlots) {
			r.copySize[s.Register] = 1 // instance mv
		}
		for _, rp := range rx.RegParams {
			r.copySize[rp.Dup] = uint64(rp.PaddedN) // instances mv·PaddedN onward
			r.copySize[rp.Ts] = uint64(rp.PaddedN)
		}
	}
	return r
}

// Arm turns the vv rule on. The prologue installs both copies of every
// table, and a settle (an add outside a reaction) writes the live copy
// on purpose, so a caller arms at the end of the prologue.
func (r *Rules) Arm() { r.armed = true }

// Err reports the first violation of a snapshot rule, or nil.
func (r *Rules) Err() error { return r.err }

// live reads the version bits packets currently see.
func (r *Rules) live() (vv, mv uint64, ok bool) {
	call, _ := r.sw.DefaultAction(r.master)
	if call == nil {
		return 0, 0, false
	}
	if r.vvAt >= 0 && r.vvAt < len(call.Data) {
		vv = call.Data[r.vvAt]
	}
	if r.mvAt >= 0 && r.mvAt < len(call.Data) {
		mv = call.Data[r.mvAt]
	}
	return vv, mv, true
}

func (r *Rules) check(n int, op *driver.Op) {
	if r.err != nil || r.master == "" {
		return
	}
	var bad string
	switch op.Kind {
	case driver.OpRead:
		bad = r.checkRead(op)
	case driver.OpAddEntry, driver.OpModifyEntry, driver.OpDeleteEntry:
		if r.armed {
			bad = r.checkWrite(op)
		}
	}
	if bad != "" {
		vv, mv, _ := r.live()
		r.err = fmt.Errorf("check: snapshot rule violated at op %d %s: %s (live vv=%d mv=%d)", n, op.Name(), bad, vv, mv)
	}
}

// checkRead returns what breaks the mv rule in a read, or "".
func (r *Rules) checkRead(op *driver.Op) string {
	_, mv, ok := r.live()
	if !ok {
		return ""
	}
	read := false
	for _, req := range op.Reqs {
		size, meas := r.copySize[req.Reg]
		if !meas || req.Hi <= req.Lo {
			continue
		}
		if !read {
			read = true
			r.Reads++
		}
		// With two copies, ranges that all stay off the live one all
		// address the same frozen one.
		switch c := req.Lo / size; {
		case (req.Hi-1)/size != c:
			return fmt.Sprintf("reads %s [%d,%d) across both copies", req.Reg, req.Lo, req.Hi)
		case c == mv:
			return fmt.Sprintf("reads %s [%d,%d) in copy mv=%d, the one packets write", req.Reg, req.Lo, req.Hi, c)
		}
	}
	return ""
}

// checkWrite returns what breaks the vv rule in a table write, or "".
func (r *Rules) checkWrite(op *driver.Op) string {
	col, versioned := r.vvCol[op.Table]
	if !versioned {
		return ""
	}
	vv, _, ok := r.live()
	if !ok {
		return ""
	}
	keys := op.Keys
	if op.Kind != driver.OpAddEntry {
		es, _ := r.sw.Entries(op.Table)
		i := slices.IndexFunc(es, func(e rmt.Entry) bool { return e.Handle == op.Handle })
		if i < 0 {
			return "" // no such entry: the op fails below
		}
		keys = es[i].Keys
	}
	if col >= len(keys) {
		return ""
	}
	r.Writes++
	c := keys[col].Value
	switch {
	case c != vv:
		return ""
	case op.Kind != driver.OpAddEntry:
		return fmt.Sprintf("handle %d writes copy vv=%d, the one packets read", op.Handle, c)
	}
	vs := make([]uint64, len(keys))
	for i, k := range keys {
		vs[i] = k.Value
	}
	return fmt.Sprintf("key %v writes copy vv=%d, the one packets read", vs, c)
}
