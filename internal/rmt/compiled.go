package rmt

import (
	"fmt"

	"repro/internal/p4"
	"repro/internal/packet"
)

// This file compiles a program's control flow into a flat instruction
// slice at switch construction time, in the spirit of Packet
// Transactions: the per-packet path interprets a specialized,
// pre-resolved pipeline instead of walking the p4 AST. Table names are
// resolved to *tableInstance pointers and If/Else nesting is flattened
// into jumps, so executing a pipeline pass does no map lookups, no
// interface type switches over ControlStmt, and no recursion.

type opcode uint8

const (
	// opApply applies instr.table to the packet.
	opApply opcode = iota
	// opJump continues execution at instr.target.
	opJump
	// opJumpIfNot evaluates instr.cond and jumps to instr.target when it
	// is false (the else/end edge of an If).
	opJumpIfNot
)

// instr is one step of a compiled control flow.
type instr struct {
	op     opcode
	table  *tableInstance
	cond   p4.CondExpr
	target int
}

// compileControl flattens stmts into instructions appended to prog.
// New validates the program first, so every applied table resolves.
func (sw *Switch) compileControl(prog []instr, stmts []p4.ControlStmt) []instr {
	for _, s := range stmts {
		switch st := s.(type) {
		case p4.Apply:
			prog = append(prog, instr{op: opApply, table: sw.tables[st.Table]})
		case p4.If:
			branch := len(prog)
			prog = append(prog, instr{op: opJumpIfNot, cond: st.Cond})
			prog = sw.compileControl(prog, st.Then)
			if len(st.Else) > 0 {
				skip := len(prog)
				prog = append(prog, instr{op: opJump})
				prog[branch].target = len(prog)
				prog = sw.compileControl(prog, st.Else)
				prog[skip].target = len(prog)
			} else {
				prog[branch].target = len(prog)
			}
		}
	}
	return prog
}

// runCompiled executes a compiled control flow for one packet. A drop
// primitive ends the pass after its containing action completes, same
// as the interpreted semantics.
func (sw *Switch) runCompiled(env *execEnv, prog []instr) {
	pc := 0
	for pc < len(prog) {
		in := &prog[pc]
		switch in.op {
		case opApply:
			sw.applyTable(env, in.table)
			if env.dropped {
				return
			}
		case opJump:
			pc = in.target
			continue
		case opJumpIfNot:
			if !evalCond(env, &in.cond) {
				pc = in.target
				continue
			}
		}
		pc++
	}
}

// applyTable looks the packet up in ti and executes the matched (or
// default) action. The key buffer, compiled action, and action data are
// all preallocated, keeping this allocation-free.
func (sw *Switch) applyTable(env *execEnv, ti *tableInstance) {
	vals := ti.keyScratch
	for i := range ti.def.Keys {
		k := &ti.def.Keys[i]
		v := env.pkt.Get(k.Field)
		if k.StaticMask != 0 {
			v &= k.StaticMask
		}
		vals[i] = v
	}
	code, data := ti.defaultCode, ti.defaultData
	if e := ti.lookup(vals); e != nil {
		code, data = e.code, e.Data
	}
	if code != nil { // nil: a miss on a table with no default action
		env.params = data
		sw.runAction(env, code)
		env.params = nil
	}
}

// ---- Compiled action bodies ----
//
// Action bodies are likewise specialized at New(): register and hash
// names are resolved to their runtime instances and each primitive
// becomes one flat cprim, so executing an action does no map lookups
// and no interface dispatch. The primitive set is closed (p4.Primitive
// has an unexported method), so compileAction is exhaustive and this is
// the only interpreter of action bodies.

type cprimKind uint8

const (
	cpModify cprimKind = iota
	cpALU
	cpDrop
	cpRegRead
	cpRegWrite
	cpRegInc
	cpHash
	cpRecirc
)

// cprim is one compiled primitive operation.
type cprim struct {
	kind    cprimKind
	aluOp   p4.ALUOp
	dst     packet.FieldID
	a, b    p4.Operand
	reg     *registerInstance
	hashIdx int
	base    uint64
	size    uint64
}

// caction is a compiled action body.
type caction struct {
	prims []cprim
}

// operand evaluates o against the current packet and action data.
func (env *execEnv) operand(o *p4.Operand) uint64 {
	switch o.Kind {
	case p4.OpField:
		return env.pkt.Get(o.Field)
	case p4.OpConst:
		return o.Const
	default:
		return env.params[o.Param]
	}
}

// compileAction lowers one action body. NoOps are dropped outright.
func (sw *Switch) compileAction(a *p4.Action) *caction {
	ca := &caction{}
	for _, prim := range a.Body {
		switch pr := prim.(type) {
		case p4.ModifyField:
			ca.prims = append(ca.prims, cprim{kind: cpModify, dst: pr.Dst, a: pr.Src})
		case p4.ALU:
			ca.prims = append(ca.prims, cprim{kind: cpALU, aluOp: pr.Op, dst: pr.Dst, a: pr.A, b: pr.B})
		case p4.Drop:
			ca.prims = append(ca.prims, cprim{kind: cpDrop})
		case p4.NoOp:
		case p4.RegisterRead:
			ca.prims = append(ca.prims, cprim{kind: cpRegRead, dst: pr.Dst, reg: sw.registers[pr.Reg], a: pr.Index})
		case p4.RegisterWrite:
			ca.prims = append(ca.prims, cprim{kind: cpRegWrite, reg: sw.registers[pr.Reg], a: pr.Index, b: pr.Value})
		case p4.RegisterIncrement:
			ca.prims = append(ca.prims, cprim{kind: cpRegInc, reg: sw.registers[pr.Reg], a: pr.Index, b: pr.By})
		case p4.ModifyFieldWithHash:
			ca.prims = append(ca.prims, cprim{kind: cpHash, dst: pr.Dst, hashIdx: sw.hashIndex[pr.Hash], base: pr.Base, size: pr.Size})
		case p4.Recirculate:
			ca.prims = append(ca.prims, cprim{kind: cpRecirc})
		default:
			panic(fmt.Sprintf("rmt: action %s: no lowering for primitive %T", a.Name, prim))
		}
	}
	return ca
}

// runAction executes a compiled action body for one packet.
func (sw *Switch) runAction(env *execEnv, ca *caction) {
	pkt := env.pkt
	for i := range ca.prims {
		pr := &ca.prims[i]
		switch pr.kind {
		case cpModify:
			pkt.Set(pr.dst, env.operand(&pr.a))
		case cpALU:
			pkt.Set(pr.dst, pr.aluOp.Apply(env.operand(&pr.a), env.operand(&pr.b)))
		case cpDrop:
			env.dropped = true
		case cpRegRead:
			pkt.Set(pr.dst, pr.reg.read(env.operand(&pr.a)))
		case cpRegWrite:
			pr.reg.write(env.operand(&pr.a), env.operand(&pr.b))
		case cpRegInc:
			idx := env.operand(&pr.a)
			pr.reg.write(idx, pr.reg.read(idx)+env.operand(&pr.b))
		case cpHash:
			h := sw.hashValue(pkt, pr.hashIdx)
			if pr.size > 0 {
				h = pr.base + h%pr.size
			}
			pkt.Set(pr.dst, h)
		case cpRecirc:
			env.recirculate = true
		}
	}
}
