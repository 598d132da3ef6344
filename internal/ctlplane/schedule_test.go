package ctlplane

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/driver"
	"repro/internal/rmt"
	"repro/internal/sim"
)

var updateScheduleGolden = flag.Bool("update-schedule-golden", false,
	"rewrite testdata/schedule.golden from this build's behaviour")

const scheduleGoldenFile = "testdata/schedule.golden"

// scheduleTranscript runs 1 primary, 8 legacy writers and 2 observers
// against one service — all starting at the same instant, each thinking
// for a multiple of 100 ns between calls (every driver cost is one too,
// so arrivals tie with each other and with completions all the time), at
// a load that leaves the service idle about a quarter of the time — and
// returns one "session start end" line per operation in service
// order. It uses Open and the synchronous Channel methods only.
func scheduleTranscript(t *testing.T, policy Policy) string {
	s := sim.New(1)
	sw, err := rmt.New(s, testProgram(), rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The tap below the service records when each operation held the
	// channel. The service is exclusive and every operation costs channel
	// time, so completion instants are unique and identify the op.
	log := check.NewTap(driver.New(s, sw, driver.DefaultCostModel()))
	var (
		spans [][2]sim.Time
		start sim.Time
	)
	log.Before = func(p *sim.Proc, _ int, _ *driver.Op) error {
		start = p.Now()
		return nil
	}
	log.After = func(p *sim.Proc, _ int, _ *driver.Op, err error) error {
		spans = append(spans, [2]sim.Time{start, p.Now()})
		return err
	}
	svc := New(s, log, Options{Policy: policy})

	const opsEach = 24
	owner := map[sim.Time]string{} // completion instant → session
	client := func(idx int, opts SessionOptions) {
		sess, err := svc.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		s.Spawn(opts.Name, func(p *sim.Proc) {
			rnd := uint64(idx)*2654435761 + 44021
			next := func(n uint64) uint64 {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				return (rnd >> 33) % n
			}
			var h rmt.EntryHandle
			cell := uint64(idx)
			for i := 0; i < opsEach; i++ {
				var err error
				switch {
				case opts.Role == RoleObserver:
					switch next(3) {
					case 0:
						_, err = sess.RegRead(p, "r1", cell)
					case 1:
						_, err = sess.BatchRead(p, []driver.ReadReq{{Reg: "r0", Lo: 0, Hi: 4}, {Reg: "r0", Lo: 5, Hi: 6 + next(8)}})
					default:
						_, err = sess.UnbatchedRead(p, []driver.ReadReq{{Reg: "r1", Lo: cell, Hi: cell + 2}})
					}
				case i == 0:
					h, err = sess.AddEntry(p, "tbl", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(cell)}, Action: "act", Data: []uint64{0}})
				default:
					switch next(5) {
					case 0, 1:
						err = sess.ModifyEntry(p, "tbl", h, "act", []uint64{uint64(i)})
					case 2:
						err = sess.RegWrite(p, "r0", cell, uint64(i))
					case 3:
						_, err = sess.BatchRead(p, []driver.ReadReq{{Reg: "r1", Lo: cell, Hi: cell + 1 + next(6)}})
					default:
						_, err = sess.ReadEntries(p, "tbl")
					}
				}
				if err != nil {
					t.Errorf("%s op %d: %v", opts.Name, i, err)
					return
				}
				owner[p.Now()] = opts.Name
				p.Sleep(time.Duration(next(400)) * 100 * time.Nanosecond)
			}
		})
	}
	// The primary opens (and spawns) in the middle, so at an instant
	// several callers share it is never first in event order.
	for i := 0; i < 8; i++ {
		if i == 4 {
			client(0, SessionOptions{Name: "prim", Role: RolePrimary, ElectionID: 1})
		}
		client(1+i, SessionOptions{Name: fmt.Sprintf("leg%d", i), Role: RoleLegacy})
	}
	for i := 0; i < 2; i++ {
		client(9+i, SessionOptions{Name: fmt.Sprintf("obs%d", i)})
	}
	s.Run()

	var out strings.Builder
	for _, sp := range spans {
		fmt.Fprintf(&out, "%s %s %d %d\n", policy, owner[sp[1]], int64(sp[0]), int64(sp[1]))
	}
	return out.String()
}

// TestScheduleMatchesParent is the differential test of the arbiter: the
// per-operation (session, start, end) schedule under both policies must
// equal the golden. The arbiter first matched the transcript the
// dispatcher process produced at the commit before it was removed; the
// file was then recaptured once (-update-schedule-golden), with in-read
// range merging still present, after the observers' two-range read was
// changed to ranges that do not touch — the only ops that ever merged —
// so that deleting the merge leaves it byte-identical.
func TestScheduleMatchesParent(t *testing.T) {
	got := scheduleTranscript(t, PolicyPriority) + scheduleTranscript(t, PolicyFIFO)
	if *updateScheduleGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scheduleGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scheduleGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d operations served, the parent commit served %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("op %d: served %q, the parent commit served %q", i, gotLines[i], wantLines[i])
		}
	}
}
