package journal

import (
	"reflect"
	"testing"

	"repro/internal/rmt"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Iteration: 42,
		VV:        1,
		MV:        0,
		InitData:  [][]uint64{{1, 0, 7}, {9}},
		Mbl:       map[string]uint64{"thresh": 7},
		Tables: []TableState{{
			Table:      "t1__gen",
			NextHandle: 3,
			Entries: []EntryState{
				{Handle: 1, Spec: EntrySpec{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{5}}},
				{Handle: 3, Spec: EntrySpec{Keys: []rmt.KeySpec{rmt.TernaryKey(4, 0xff)}, Priority: 2, Action: "set1", Data: []uint64{6}}},
			},
		}},
		RegCaches: []RegCache{{
			Name: "qd", Vals: []uint64{1, 2},
			LastTs: [2][]uint64{{3, 4}, {5, 6}},
		}},
		SavedAt: 1000,
	}
}

func sampleIntent() *Intent {
	return &Intent{
		Iteration: 43,
		Phase:     PhaseCommitStaged,
		StartVV:   1,
		TargetVV:  0,
		Ops: []TableOp{
			{Table: "t1__gen", Kind: OpModify, Handle: 1,
				Spec: EntrySpec{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{8}}},
			{Table: "t1__gen", Kind: OpDelete, Handle: 3},
		},
		PendingMbl:     map[string]uint64{"thresh": 8},
		TargetInitData: [][]uint64{{0, 0, 8}, {9}},
		WrittenAt:      2000,
	}
}

// exerciseStore runs the round-trip contract shared by every Store.
func exerciseStore(t *testing.T, st Store) {
	t.Helper()

	// Empty store: loads return nil/zero without error.
	if c, err := st.LoadCheckpoint(); c != nil || err != nil {
		t.Fatalf("empty LoadCheckpoint = %v, %v", c, err)
	}
	if it, err := st.LoadIntent(); it != nil || err != nil {
		t.Fatalf("empty LoadIntent = %v, %v", it, err)
	}
	if hb, err := st.LastHeartbeat(); hb != 0 || err != nil {
		t.Fatalf("empty LastHeartbeat = %d, %v", hb, err)
	}

	cp := sampleCheckpoint()
	if err := st.SaveCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("checkpoint round trip:\n got %+v\nwant %+v", got, cp)
	}

	// Loaded records must be deep copies: mutating one must not bleed
	// into a subsequent load.
	got.Tables[0].Entries[0].Spec.Data[0] = 999
	got2, _ := st.LoadCheckpoint()
	if got2.Tables[0].Entries[0].Spec.Data[0] != 5 {
		t.Fatal("LoadCheckpoint aliases store memory")
	}

	it := sampleIntent()
	if err := st.WriteIntent(it); err != nil {
		t.Fatal(err)
	}
	gotIt, err := st.LoadIntent()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIt, it) {
		t.Fatalf("intent round trip:\n got %+v\nwant %+v", gotIt, it)
	}

	if err := st.TruncateIntent(); err != nil {
		t.Fatal(err)
	}
	if gotIt, _ := st.LoadIntent(); gotIt != nil {
		t.Fatalf("intent survived truncate: %+v", gotIt)
	}
	// Truncating an already-empty intent is a no-op, not an error.
	if err := st.TruncateIntent(); err != nil {
		t.Fatal(err)
	}

	if err := st.Heartbeat(12345); err != nil {
		t.Fatal(err)
	}
	if hb, _ := st.LastHeartbeat(); hb != 12345 {
		t.Fatalf("heartbeat = %d, want 12345", hb)
	}
	if err := st.Heartbeat(12400); err != nil {
		t.Fatal(err)
	}
	if hb, _ := st.LastHeartbeat(); hb != 12400 {
		t.Fatalf("heartbeat = %d, want 12400", hb)
	}

	// Checkpoint survives intent churn.
	if c, _ := st.LoadCheckpoint(); c == nil || c.Iteration != 42 {
		t.Fatalf("checkpoint lost: %+v", c)
	}
}

func TestMemStore(t *testing.T) { exerciseStore(t, NewMemStore()) }

func TestFileStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir() + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	exerciseStore(t, fs)

	// A second FileStore on the same directory sees the records — the
	// actual restart path.
	fs2, err := NewFileStore(fs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if c, err := fs2.LoadCheckpoint(); err != nil || c == nil || c.Iteration != 42 {
		t.Fatalf("reopened store checkpoint = %+v, %v", c, err)
	}
	if hb, _ := fs2.LastHeartbeat(); hb != 12400 {
		t.Fatalf("reopened store heartbeat = %d", hb)
	}
}

func TestMemStoreStats(t *testing.T) {
	st := NewMemStore()
	_ = st.SaveCheckpoint(sampleCheckpoint())
	_ = st.WriteIntent(sampleIntent())
	_ = st.WriteIntent(sampleIntent())
	_ = st.TruncateIntent()
	_ = st.Heartbeat(1)
	got := st.stats
	want := StoreStats{CheckpointSaves: 1, IntentWrites: 2, Truncates: 1, Heartbeats: 1}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}
