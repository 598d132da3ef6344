// Package journal is the durable write-ahead intent log that makes the
// Mantis dialogue loop crash-consistent.
//
// The three-phase update protocol of §5.1 is serializable only while
// the agent process survives: its undo/mirror journals live in agent
// memory, so a crash between prepare and commit strands installed
// shadow entries and half-flipped version state that no successor can
// interpret from the switch alone. This package gives the agent a tiny
// durable side-channel — a checkpoint of the last committed
// configuration plus an intent record for the in-flight iteration —
// sized so one journal write costs far less than one driver operation.
//
// The write discipline (enforced by internal/core):
//
//   - A Checkpoint is saved after the prologue and after every
//     completed iteration. It captures exactly the state a successor
//     needs to rebuild the agent: version bits, init-table data,
//     committed malleable values, user-level table entries (with their
//     user handles, so application-held handles survive failover), and
//     the measurement caches that guard against §5.2's stale-read
//     anomaly.
//
//   - An Intent in PhaseBegun is written before the iteration touches
//     the switch; it is upgraded to PhaseCommitStaged — now carrying
//     the staged user-level table ops and the exact init-table data the
//     flip will install — immediately before the prepare phase, and
//     truncated once the iteration (or its rollback) completes.
//
// Recovery (core.Recover) classifies a crash by combining the intent
// phase with an audit of the live switch: no intent means the crash hit
// between iterations; a Begun or CommitStaged intent with the audited
// vv still at the checkpoint value means the flip never executed (roll
// back to the checkpoint); a CommitStaged intent with the audited vv at
// the target value means the flip landed but mirrors may be unfinished
// (roll forward by applying the intent's ops to the checkpoint).
//
// Store implementations must be atomic per record: a reader sees either
// the previous record or the new one, never a torn write. MemStore
// models battery-backed controller RAM shared with a standby; FileStore
// persists files for processes that genuinely restart. Both hold the
// framed binary records of record.go.
package journal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/rmt"
)

// EntrySpec is a user-level table entry specification, the journal's
// copy of core.UserEntry (duplicated here so the dependency points from
// core to journal, not back).
type EntrySpec struct {
	Keys     []rmt.KeySpec `json:"keys"`
	Priority int           `json:"priority,omitempty"`
	Action   string        `json:"action"`
	Data     []uint64      `json:"data"`
}

// TableOpKind distinguishes the user-level operations an intent stages.
type TableOpKind string

// The three user-level table operations of the dialogue protocol.
const (
	OpAdd    TableOpKind = "add"
	OpModify TableOpKind = "modify"
	OpDelete TableOpKind = "delete"
)

// TableOp is one staged user-level table operation. Ops are recorded at
// user level, not concrete-entry level: concrete handles are assigned
// by the (now dead) primary's driver calls and mean nothing to a
// successor, whereas the user spec deterministically regenerates every
// concrete entry for both versions.
type TableOp struct {
	Table string      `json:"table"`
	Kind  TableOpKind `json:"kind"`
	// Handle is the user-level handle the op targets (for OpAdd, the
	// handle the primary assigned — replayed so application handles stay
	// stable across failover).
	Handle uint64 `json:"handle"`
	// Spec is the post-op entry specification (zero for OpDelete).
	Spec EntrySpec `json:"spec,omitempty"`
}

// EntryState is one user entry in a checkpointed table.
type EntryState struct {
	Handle uint64    `json:"handle"`
	Spec   EntrySpec `json:"spec"`
}

// TableState checkpoints one malleable table's user-level content.
type TableState struct {
	Table      string       `json:"table"`
	NextHandle uint64       `json:"next_handle"`
	Entries    []EntryState `json:"entries"` // sorted by handle
}

// RegCache checkpoints one measurement register's timestamp-guarded
// cache, so a successor resumes with the freshest serializable values
// instead of re-triggering the alternating-stale-read anomaly of §5.2.
type RegCache struct {
	Name   string      `json:"name"`
	Vals   []uint64    `json:"vals"`
	LastTs [2][]uint64 `json:"last_ts"`
}

// Checkpoint is the durable image of the last committed configuration.
type Checkpoint struct {
	// Iteration is the dialogue iteration count at save time.
	Iteration uint64 `json:"iteration"`
	// VV and MV are the committed version bits.
	VV uint64 `json:"vv"`
	MV uint64 `json:"mv"`
	// InitData mirrors the committed action data of each init table,
	// indexed like the plan's InitTables (index 0 = master).
	InitData [][]uint64 `json:"init_data"`
	// Mbl holds the committed malleable values (alt indices for fields).
	Mbl map[string]uint64 `json:"mbl,omitempty"`
	// Tables checkpoints each malleable table, sorted by name.
	Tables []TableState `json:"tables,omitempty"`
	// RegCaches checkpoints the measurement caches, sorted by name.
	RegCaches []RegCache `json:"reg_caches,omitempty"`
	// SavedAt is the virtual time of the save, in nanoseconds.
	SavedAt int64 `json:"saved_at"`
}

// Phase tells recovery how far the journaled iteration got.
type Phase string

const (
	// PhaseBegun: the iteration started (mv flip, polls, reactions may
	// have staged shadow writes) but its commit was not yet attempted.
	PhaseBegun Phase = "begun"
	// PhaseCommitStaged: the commit was about to run — the intent holds
	// the full staged op list and the init data the flip will install.
	// Whether the flip landed is decided by auditing the live vv bit.
	PhaseCommitStaged Phase = "commit-staged"
)

// Intent is the write-ahead record of one in-flight iteration.
type Intent struct {
	Iteration uint64 `json:"iteration"`
	Phase     Phase  `json:"phase"`
	// StartVV is the committed vv when the iteration began; TargetVV is
	// the value the commit will flip to. Comparing the audited live vv
	// against these two classifies torn-prepare vs committed-unmirrored.
	StartVV  uint64 `json:"start_vv"`
	TargetVV uint64 `json:"target_vv"`
	// Ops are the staged user-level table operations, in staging order
	// (PhaseCommitStaged only).
	Ops []TableOp `json:"ops,omitempty"`
	// PendingMbl are the staged malleable writes the flip will commit.
	PendingMbl map[string]uint64 `json:"pending_mbl,omitempty"`
	// TargetInitData is the init-table action data the commit installs,
	// indexed like the plan's InitTables (PhaseCommitStaged only).
	TargetInitData [][]uint64 `json:"target_init_data,omitempty"`
	// WrittenAt is the virtual time of the write, in nanoseconds.
	WrittenAt int64 `json:"written_at"`
}

// Store is the pluggable durability backend. Implementations must make
// each record write atomic (old or new, never torn) and must tolerate
// Load* before any Save/Write (returning nil, nil).
//
// The heartbeat shares the store because failure detection and recovery
// need the same reachability: a standby that can read the journal can
// also see the primary stopped beating.
type Store interface {
	// SaveCheckpoint and WriteIntent must serialize (or deep-copy) the
	// record before returning: the agent refills one Checkpoint and one
	// Intent — and the slices and maps they reference — in place every
	// iteration, so retaining the pointer or anything reachable from it
	// is a bug.
	SaveCheckpoint(c *Checkpoint) error
	// LoadCheckpoint returns nil, nil when no checkpoint was ever saved.
	LoadCheckpoint() (*Checkpoint, error)
	WriteIntent(it *Intent) error
	// LoadIntent returns nil, nil when no intent is outstanding.
	LoadIntent() (*Intent, error)
	TruncateIntent() error
	// Heartbeat records the primary's liveness at virtual time now (ns).
	Heartbeat(now int64) error
	// LastHeartbeat returns the last recorded beat (0 = never).
	LastHeartbeat() (int64, error)
}

// cell names one of the three things a store holds.
type cell int

const (
	cellCheckpoint cell = iota
	cellIntent
	cellHeartbeat
	numCells
)

// medium is where a store keeps its cells' bytes. put must be atomic — a
// get sees the previous bytes or the new ones, never a mixture — and
// copies b; get returns nil, nil for a cell never put (or deleted), and
// bytes valid until the next put.
type medium interface {
	put(c cell, b []byte) error
	get(c cell) ([]byte, error)
	del(c cell) error
}

// store implements Store over a medium: the one place records are
// encoded, decoded and counted. Every record is encoded into the store's
// own buffer, so a steady-state write allocates nothing.
type store struct {
	mu    sync.Mutex
	m     medium
	enc   Encoder
	buf   []byte
	stats StoreStats
}

// StoreStats counts journal activity (for experiments and tests).
type StoreStats struct {
	CheckpointSaves uint64
	IntentWrites    uint64
	Truncates       uint64
	Heartbeats      uint64
}

// SaveCheckpoint atomically replaces the checkpoint record.
func (s *store) SaveCheckpoint(c *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.enc.AppendCheckpoint(s.buf[:0], c)
	s.stats.CheckpointSaves++
	return s.m.put(cellCheckpoint, s.buf)
}

// LoadCheckpoint returns the last saved checkpoint (nil, nil if none).
func (s *store) LoadCheckpoint() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.m.get(cellCheckpoint)
	if b == nil || err != nil {
		return nil, err
	}
	return DecodeCheckpoint(b)
}

// WriteIntent atomically replaces the intent record.
func (s *store) WriteIntent(it *Intent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.enc.AppendIntent(s.buf[:0], it)
	s.stats.IntentWrites++
	return s.m.put(cellIntent, s.buf)
}

// LoadIntent returns the outstanding intent (nil, nil if none).
func (s *store) LoadIntent() (*Intent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.m.get(cellIntent)
	if b == nil || err != nil {
		return nil, err
	}
	return DecodeIntent(b)
}

// TruncateIntent clears the intent record.
func (s *store) TruncateIntent() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Truncates++
	return s.m.del(cellIntent)
}

// Heartbeat records the primary's liveness.
func (s *store) Heartbeat(now int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = binary.LittleEndian.AppendUint64(s.buf[:0], uint64(now))
	s.stats.Heartbeats++
	return s.m.put(cellHeartbeat, s.buf)
}

// LastHeartbeat returns the last recorded beat (0 = never).
func (s *store) LastHeartbeat() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.m.get(cellHeartbeat)
	if b == nil || err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: %d-byte heartbeat", ErrCorrupt, len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// MemStore is an in-memory Store: the model of a journal region in
// battery-backed controller RAM (or a replicated KV namespace) that a
// standby on the same failure domain boundary can read after the
// primary dies. Records are stored encoded, so a loaded record is always
// a deep copy — exactly the aliasing semantics a real durable store
// gives.
type MemStore struct{ store }

// NewMemStore returns an empty in-memory journal store.
func NewMemStore() *MemStore {
	m := &MemStore{}
	m.m = new(memory)
	return m
}

// memory holds each cell in two store-owned buffers: a put fills the
// spare one and only then makes it current, so whatever interrupts a
// write, a get sees the old bytes or the new ones, never half of each —
// and a steady-state put allocates nothing.
type memory [numCells]struct {
	bufs [2][]byte
	cur  int
	set  bool
}

func (m *memory) put(c cell, b []byte) error {
	s := &m[c]
	spare := s.cur ^ 1
	s.bufs[spare] = append(s.bufs[spare][:0], b...)
	s.cur, s.set = spare, true
	return nil
}

func (m *memory) get(c cell) ([]byte, error) {
	if s := &m[c]; s.set {
		return s.bufs[s.cur], nil
	}
	return nil, nil
}

func (m *memory) del(c cell) error {
	m[c].set = false
	return nil
}

var _ Store = (*MemStore)(nil)
