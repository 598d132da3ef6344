package p4

import (
	"fmt"

	"repro/internal/packet"
)

// Standard metadata field names. The RMT switch model populates these at
// pipeline entry and consumes them at pipeline exit, mirroring the intrinsic
// metadata of real RMT targets.
const (
	// StdMetadataPrefix marks every intrinsic metadata field. Fields
	// under it (like those under MetadataPrefix) are switch-local
	// scratch, not wire state.
	StdMetadataPrefix = "standard_metadata."

	FieldIngressPort = "standard_metadata.ingress_port"
	FieldEgressSpec  = "standard_metadata.egress_spec"
	FieldPacketLen   = "standard_metadata.packet_length"
	FieldTimestamp   = "standard_metadata.ingress_global_timestamp"
	FieldEnqQdepth   = "standard_metadata.enq_qdepth"
	FieldEgressPort  = "standard_metadata.egress_port"
	FieldPriority    = "standard_metadata.priority"
)

// DefineStandardMetadata registers the intrinsic metadata fields on a
// program's schema. Every program loaded into the rmt model must call
// this (NewProgram callers typically do it first).
func (p *Program) DefineStandardMetadata() {
	p.Schema.Define(FieldIngressPort, 16)
	p.Schema.Define(FieldEgressSpec, 16)
	p.Schema.Define(FieldPacketLen, 32)
	p.Schema.Define(FieldTimestamp, 48)
	p.Schema.Define(FieldEnqQdepth, 24)
	p.Schema.Define(FieldEgressPort, 16)
	p.Schema.Define(FieldPriority, 8)
}

// OperandKind discriminates Operand variants.
type OperandKind int

// Operand kinds.
const (
	OpField OperandKind = iota
	OpConst
	OpParam
)

// Operand is a value source in a primitive op: a packet field, an
// immediate constant, or a runtime action parameter.
type Operand struct {
	Kind  OperandKind
	Field packet.FieldID
	Name  string // field name, for printing
	Const uint64
	Param int
	// ParamName is the declared name, for printing.
	ParamName string
}

// FieldOp returns an operand reading the given field.
func FieldOp(id packet.FieldID, name string) Operand {
	return Operand{Kind: OpField, Field: id, Name: name}
}

// ConstOp returns an immediate-constant operand.
func ConstOp(v uint64) Operand { return Operand{Kind: OpConst, Const: v} }

// ParamOp returns an operand reading the i'th action parameter.
func ParamOp(i int, name string) Operand {
	return Operand{Kind: OpParam, Param: i, ParamName: name}
}

func (o Operand) check(p *Program, a *Action) error {
	switch o.Kind {
	case OpField:
		if o.Field < 0 || int(o.Field) >= p.Schema.NumFields() {
			return fmt.Errorf("unresolved field operand %q", o.Name)
		}
	case OpParam:
		if o.Param < 0 || o.Param >= len(a.Params) {
			return fmt.Errorf("action parameter index %d out of range", o.Param)
		}
	}
	return nil
}

// Primitive is one step of an action body. The set of primitives matches
// the RMT constraint envelope described in §2 of the paper: simple ALU
// ops only — no multiplication, division, or loops. The set is closed
// (check is unexported), and rmt compiles each member at switch
// construction.
type Primitive interface {
	check(p *Program, a *Action) error
}

func checkDst(p *Program, id packet.FieldID, name string) error {
	if id < 0 || int(id) >= p.Schema.NumFields() {
		return fmt.Errorf("unresolved destination field %q", name)
	}
	return nil
}

// ModifyField sets Dst to the value of Src.
type ModifyField struct {
	Dst     packet.FieldID
	DstName string
	Src     Operand
}

func (m ModifyField) check(p *Program, a *Action) error {
	if err := checkDst(p, m.Dst, m.DstName); err != nil {
		return err
	}
	return m.Src.check(p, a)
}

// ALUOp is a two-operand arithmetic/logic operation kind.
type ALUOp int

// ALU operation kinds.
const (
	ALUAdd ALUOp = iota
	ALUSub
	ALUAnd
	ALUOr
	ALUXor
	ALUShl
	ALUShr
	ALUMin
	ALUMax
)

func (op ALUOp) String() string {
	switch op {
	case ALUAdd:
		return "add"
	case ALUSub:
		return "subtract"
	case ALUAnd:
		return "bit_and"
	case ALUOr:
		return "bit_or"
	case ALUXor:
		return "bit_xor"
	case ALUShl:
		return "shift_left"
	case ALUShr:
		return "shift_right"
	case ALUMin:
		return "min"
	case ALUMax:
		return "max"
	}
	return fmt.Sprintf("ALUOp(%d)", int(op))
}

// Apply computes the operation over two operand values.
func (op ALUOp) Apply(a, b uint64) uint64 {
	switch op {
	case ALUAdd:
		return a + b
	case ALUSub:
		return a - b
	case ALUAnd:
		return a & b
	case ALUOr:
		return a | b
	case ALUXor:
		return a ^ b
	case ALUShl:
		return a << (b & 63)
	case ALUShr:
		return a >> (b & 63)
	case ALUMin:
		if a < b {
			return a
		}
		return b
	case ALUMax:
		if a > b {
			return a
		}
		return b
	}
	panic("p4: unknown ALU op")
}

// ALU computes Dst = A op B (the P4-14 three-operand primitives add,
// subtract, bit_and, ...). Results wrap modulo the destination width.
type ALU struct {
	Op      ALUOp
	Dst     packet.FieldID
	DstName string
	A, B    Operand
}

func (x ALU) check(p *Program, a *Action) error {
	if err := checkDst(p, x.Dst, x.DstName); err != nil {
		return err
	}
	if err := x.A.check(p, a); err != nil {
		return err
	}
	return x.B.check(p, a)
}

// Drop marks the packet to be discarded at the end of the pipeline.
type Drop struct{}

func (Drop) check(*Program, *Action) error { return nil }

// NoOp does nothing.
type NoOp struct{}

func (NoOp) check(*Program, *Action) error { return nil }

// RegisterRead loads Reg[Index] into Dst.
type RegisterRead struct {
	Dst     packet.FieldID
	DstName string
	Reg     string
	Index   Operand
}

func (r RegisterRead) check(p *Program, a *Action) error {
	if err := checkDst(p, r.Dst, r.DstName); err != nil {
		return err
	}
	if _, ok := p.Registers[r.Reg]; !ok {
		return fmt.Errorf("unknown register %q", r.Reg)
	}
	return r.Index.check(p, a)
}

// RegisterWrite stores Value into Reg[Index].
type RegisterWrite struct {
	Reg   string
	Index Operand
	Value Operand
}

func (r RegisterWrite) check(p *Program, a *Action) error {
	if _, ok := p.Registers[r.Reg]; !ok {
		return fmt.Errorf("unknown register %q", r.Reg)
	}
	if err := r.Index.check(p, a); err != nil {
		return err
	}
	return r.Value.check(p, a)
}

// RegisterIncrement adds By to Reg[Index] — the counter idiom
// (count / bytes counters) expressed as a stateful register update.
type RegisterIncrement struct {
	Reg   string
	Index Operand
	By    Operand
}

func (r RegisterIncrement) check(p *Program, a *Action) error {
	if _, ok := p.Registers[r.Reg]; !ok {
		return fmt.Errorf("unknown register %q", r.Reg)
	}
	if err := r.Index.check(p, a); err != nil {
		return err
	}
	return r.By.check(p, a)
}

// ModifyFieldWithHash sets Dst = Base + (hash(fields) % Size), the P4-14
// modify_field_with_hash_based_offset primitive. Size == 0 stores the raw
// hash value.
type ModifyFieldWithHash struct {
	Dst     packet.FieldID
	DstName string
	Hash    string
	Base    uint64
	Size    uint64
}

func (m ModifyFieldWithHash) check(p *Program, a *Action) error {
	if err := checkDst(p, m.Dst, m.DstName); err != nil {
		return err
	}
	if _, ok := p.Hashes[m.Hash]; !ok {
		return fmt.Errorf("unknown hash calculation %q", m.Hash)
	}
	return nil
}

// Recirculate sends the packet back to the start of the ingress pipeline
// after the egress pipeline completes.
type Recirculate struct{}

func (Recirculate) check(*Program, *Action) error { return nil }
