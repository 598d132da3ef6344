// Package packet defines the packet representation shared by the RMT
// switch model and the network simulator.
//
// A Packet is a flat vector of header and metadata field values, indexed
// by FieldID. The mapping from dotted P4 names (e.g. "ipv4.srcAddr" or
// "p4r_meta_.value_var") to FieldIDs lives in a Schema, which is built
// once per compiled program. Resolving names to integer indices at
// compile time keeps the per-packet hot path free of map lookups and
// string hashing — the same reason hardware pipelines operate on a fixed
// packet header vector (PHV).
package packet

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"unsafe"
)

// FieldID indexes a field within a Schema's packet layout.
type FieldID int

// Invalid is the zero-value sentinel for an unresolved field.
const Invalid FieldID = -1

// Schema maps dotted field names to packet-vector slots. A Schema is
// immutable once packets have been created from it: the first New fixes
// the packet layout, and a Define that would add a field after it
// panics. Define must not be called concurrently with packet processing.
type Schema struct {
	names  []string
	widths []int
	index  map[string]FieldID

	// layout is the one object New allocates per packet, fixed by the
	// first New: the Packet header followed by the field vector.
	once   sync.Once
	layout reflect.Type
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{index: make(map[string]FieldID)}
}

// Define registers a field with the given dotted name and bit width
// (1..64) and returns its ID. Defining an existing name with the same
// width returns the existing ID; redefining with a different width
// panics, since that is always a compiler bug.
func (s *Schema) Define(name string, width int) FieldID {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("packet: field %q has unsupported width %d", name, width))
	}
	if id, ok := s.index[name]; ok {
		if s.widths[id] != width {
			panic(fmt.Sprintf("packet: field %q redefined with width %d (was %d)", name, width, s.widths[id]))
		}
		return id
	}
	if s.layout != nil {
		panic(fmt.Sprintf("packet: field %q defined after packets were created from the schema", name))
	}
	id := FieldID(len(s.names))
	s.names = append(s.names, name)
	s.widths = append(s.widths, width)
	s.index[name] = id
	return id
}

// Lookup resolves a field name, reporting whether it exists.
func (s *Schema) Lookup(name string) (FieldID, bool) {
	id, ok := s.index[name]
	return id, ok
}

// MustID resolves a field name, panicking if it is not defined.
func (s *Schema) MustID(name string) FieldID {
	id, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("packet: unknown field %q", name))
	}
	return id
}

// Width returns the bit width of the field.
func (s *Schema) Width(id FieldID) int { return s.widths[id] }

// Name returns the dotted name of the field.
func (s *Schema) Name(id FieldID) string { return s.names[id] }

// NumFields reports how many fields the schema defines.
func (s *Schema) NumFields() int { return len(s.names) }

// Names returns all defined field names in sorted order.
func (s *Schema) Names() []string {
	out := append([]string(nil), s.names...)
	sort.Strings(out)
	return out
}

// Mask returns the value mask for a field of the given width.
func Mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// Packet is a unit of traffic moving through the simulated network and
// switch pipelines. Field values are always stored masked to their
// declared width.
type Packet struct {
	schema *Schema
	fields []uint64

	// Size is the wire size in bytes, used for byte counters and link
	// serialization delay.
	Size int
	// IngressPort is the switch port the packet arrived on.
	IngressPort int
	// EgressPort is the port chosen by the ingress pipeline; -1 until set.
	EgressPort int
	// Dropped marks the packet as discarded.
	Dropped bool
	// released marks a packet in a Pool's freelist; it fits Dropped's
	// padding, where an owner pointer would grow the 96 B header and push
	// header plus field vector into the next size class.
	released bool
	// Recirculations counts trips back through the pipeline.
	Recirculations int
	// Priority selects the egress queue (higher is more urgent).
	Priority int
	// Payload carries opaque simulator context (e.g. the netsim flow that
	// emitted the packet); the data plane never inspects it.
	Payload any
}

// New creates a zero-filled packet for this schema. The header and its
// field vector are one allocation, sized to the two together.
func (s *Schema) New() *Packet {
	s.once.Do(s.fixLayout)
	base := reflect.New(s.layout).UnsafePointer()
	p := (*Packet)(base)
	p.schema = s
	p.fields = unsafe.Slice((*uint64)(unsafe.Add(base, unsafe.Sizeof(Packet{}))), len(s.names))
	p.EgressPort = -1
	return p
}

// fixLayout builds the type New allocates: the Packet header, then the
// field vector right after it. Header first, the collector's scan of a
// packet stops at the header's last pointer.
func (s *Schema) fixLayout() {
	s.layout = reflect.StructOf([]reflect.StructField{
		{Name: "P", Type: reflect.TypeFor[Packet]()},
		{Name: "F", Type: reflect.ArrayOf(len(s.names), reflect.TypeFor[uint64]())},
	})
}

// Released reports whether the packet has been put back into a Pool and
// not handed out again; nobody may use it until then.
func (p *Packet) Released() bool { return p.released }

// Get returns the value of a field.
func (p *Packet) Get(id FieldID) uint64 { return p.fields[id] }

// Set stores v into the field, masked to the field's width.
func (p *Packet) Set(id FieldID, v uint64) {
	p.fields[id] = v & Mask(p.schema.widths[id])
}

// GetName and SetName are conveniences for tests and scenario setup; the
// data-plane hot path resolves IDs ahead of time.
func (p *Packet) GetName(name string) uint64 { return p.fields[p.schema.MustID(name)] }

// SetName stores a value by field name.
func (p *Packet) SetName(name string, v uint64) { p.Set(p.schema.MustID(name), v) }

// CloneInto deep-copies p into dst (same schema), reusing dst's field
// storage, for callers that recycle packets through a Pool. Payload is
// copied by reference.
func (p *Packet) CloneInto(dst *Packet) {
	fields := dst.fields
	*dst = *p
	dst.fields = append(fields[:0], p.fields...)
}

// Reset zeroes the packet back to its post-New state so it can be
// reused for a fresh unit of traffic.
func (p *Packet) Reset() {
	for i := range p.fields {
		p.fields[i] = 0
	}
	p.Size = 0
	p.IngressPort = 0
	p.EgressPort = -1
	p.Dropped = false
	p.Recirculations = 0
	p.Priority = 0
	p.Payload = nil
}

// Pool recycles packets of one schema so per-packet hot paths (a
// network's hosts and trunks, benchmarks) run allocation-free in steady
// state. It is a plain freelist, not a sync.Pool: simulations are
// single-threaded by design, and a deterministic freelist keeps runs
// reproducible. Not safe for concurrent use; give each simulation its
// own Pool.
type Pool struct {
	schema *Schema
	free   []*Packet
	made   int
}

// NewPool returns an empty pool producing packets of schema s.
func NewPool(s *Schema) *Pool { return &Pool{schema: s} }

// Get returns a zeroed packet, reusing a returned one when available.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.released = false
		return p
	}
	pl.made++
	return pl.schema.New()
}

// Put resets p and returns it to the pool. The caller must not use p
// afterwards. Putting a packet twice, or one of another schema, is an
// ownership bug and panics.
func (pl *Pool) Put(p *Packet) {
	if p.released {
		panic("packet: Put of a packet already released")
	}
	if p.schema != pl.schema {
		panic("packet: Put of a packet from another schema")
	}
	p.Reset()
	p.released = true
	pl.free = append(pl.free, p)
}

// Counts reports how many packets Get has allocated and how many sit in
// the pool now: once every packet drawn has been put back, idle == made.
func (pl *Pool) Counts() (made, idle int) { return pl.made, len(pl.free) }
