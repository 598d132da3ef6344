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
// persists JSON files for processes that genuinely restart.
package journal

import (
	"encoding/json"
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

// MemStore is an in-memory Store: the model of a journal region in
// battery-backed controller RAM (or a replicated KV namespace) that a
// standby on the same failure domain boundary can read after the
// primary dies. Records are stored serialized, so a loaded record is
// always a deep copy — exactly the aliasing semantics a real durable
// store gives.
type MemStore struct {
	mu         sync.Mutex
	checkpoint []byte
	intent     []byte
	beat       int64

	stats StoreStats
}

// StoreStats counts journal activity (for experiments and tests).
type StoreStats struct {
	CheckpointSaves uint64
	IntentWrites    uint64
	Truncates       uint64
	Heartbeats      uint64
}

// NewMemStore returns an empty in-memory journal store.
func NewMemStore() *MemStore { return &MemStore{} }

// Stats returns a copy of the store counters.
func (m *MemStore) Stats() StoreStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// SaveCheckpoint atomically replaces the checkpoint record.
func (m *MemStore) SaveCheckpoint(c *Checkpoint) error {
	buf, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("journal: encode checkpoint: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkpoint = buf
	m.stats.CheckpointSaves++
	return nil
}

// LoadCheckpoint returns the last saved checkpoint (nil, nil if none).
func (m *MemStore) LoadCheckpoint() (*Checkpoint, error) {
	m.mu.Lock()
	buf := m.checkpoint
	m.mu.Unlock()
	if buf == nil {
		return nil, nil
	}
	var c Checkpoint
	if err := json.Unmarshal(buf, &c); err != nil {
		return nil, fmt.Errorf("journal: decode checkpoint: %w", err)
	}
	return &c, nil
}

// WriteIntent atomically replaces the intent record.
func (m *MemStore) WriteIntent(it *Intent) error {
	buf, err := json.Marshal(it)
	if err != nil {
		return fmt.Errorf("journal: encode intent: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.intent = buf
	m.stats.IntentWrites++
	return nil
}

// LoadIntent returns the outstanding intent (nil, nil if none).
func (m *MemStore) LoadIntent() (*Intent, error) {
	m.mu.Lock()
	buf := m.intent
	m.mu.Unlock()
	if buf == nil {
		return nil, nil
	}
	var it Intent
	if err := json.Unmarshal(buf, &it); err != nil {
		return nil, fmt.Errorf("journal: decode intent: %w", err)
	}
	return &it, nil
}

// TruncateIntent clears the intent record.
func (m *MemStore) TruncateIntent() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.intent = nil
	m.stats.Truncates++
	return nil
}

// Heartbeat records the primary's liveness.
func (m *MemStore) Heartbeat(now int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.beat = now
	m.stats.Heartbeats++
	return nil
}

// LastHeartbeat returns the last recorded beat (0 = never).
func (m *MemStore) LastHeartbeat() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.beat, nil
}

var _ Store = (*MemStore)(nil)
