package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateKernelGolden = flag.Bool("update-kernel-golden", false,
	"rewrite testdata/kernel.golden, chain.golden and collide.golden from this build's behaviour")

const (
	kernelGoldenFile  = "testdata/kernel.golden"
	chainGoldenFile   = "testdata/chain.golden"
	collideGoldenFile = "testdata/collide.golden"
)

// matchGolden compares a step-by-step transcript with the golden file
// captured at the commit before the kernel was replaced, or rewrites the
// file under -update-kernel-golden.
func matchGolden(t *testing.T, file, got string) {
	t.Helper()
	if *updateKernelGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			g := "<end of transcript>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("%s step %d: %q, the parent commit's kernel did %q", file, i, g, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d steps, the parent commit's kernel took %d", file, len(gotLines)-1, len(wantLines)-1)
	}
}

// kernelTranscript drives every kernel entry point from one seed — eight
// processes of different lengths doing Sleep/Yield/WaitUntil/Park, Unpark
// from processes and from events, nested Spawn, plain Schedule /
// ScheduleCall / At events, Cancel, a Ticker, Stop from an event and from
// processes with further Run calls after it, and RunUntil bounds that fall
// between a sleeper's start and its wake-up — and returns one
// "now executed actor step" line per step. Every delay it draws is
// rounded down to a multiple of quantum, and with a quantum above 1 the
// ticker's period is the quantum, so a coarse quantum makes most events
// share their instant with others. It uses exported names only (and
// Proc.name), so it runs unchanged on the kernel it was captured from.
func kernelTranscript(t *testing.T, seed int64, quantum time.Duration) string {
	s := New(seed)
	rnd := s.Rand()
	var out strings.Builder
	log := func(actor, format string, args ...any) {
		fmt.Fprintf(&out, "%d %d %s %s\n", int64(s.Now()), s.Executed(), actor, fmt.Sprintf(format, args...))
	}
	quantize := func(d time.Duration) time.Duration { return d - d%quantum }

	// parked holds the processes inside Park; whoever removes one owes it
	// exactly one Unpark.
	var parked []*Proc
	unpark := func(actor string, i int) {
		p := parked[i]
		parked = append(parked[:i], parked[i+1:]...)
		log(actor, "unpark %s", p.name)
		p.Unpark()
	}
	unparkOne := func(actor string) {
		if len(parked) > 0 {
			unpark(actor, rnd.Intn(len(parked)))
		}
	}

	var pending []EventID
	plain := func(actor string, n int) {
		d := quantize(time.Duration(rnd.Intn(250)))
		tag := fmt.Sprintf("%s.ev%d", actor, n)
		fire := func() { log(tag, "fire") }
		switch rnd.Intn(3) {
		case 0:
			pending = append(pending, s.Schedule(d, fire))
		case 1:
			pending = append(pending, s.ScheduleCall(d, func(a any) { log(tag, "call %v", a) }, n))
		default:
			// An absolute time that may lie in the past (clamped to now).
			pending = append(pending, s.At(s.Now()+Time(d-quantize(60)), fire))
		}
		log(actor, "schedule %s +%d", tag, d)
	}

	live := 0
	var body func(name string, steps, depth int) func(*Proc)
	body = func(name string, steps, depth int) func(*Proc) {
		live++
		return func(p *Proc) {
			log(name, "start")
			for i := 0; i < steps; i++ {
				switch rnd.Intn(14) {
				case 0, 1, 2:
					d := quantize(time.Duration(rnd.Intn(400)))
					log(name, "sleep %d", d)
					p.Sleep(d)
				case 3:
					log(name, "yield")
					p.Yield()
				case 4:
					at := s.Now() + Time(quantize(time.Duration(rnd.Intn(300)))) - 100
					log(name, "waituntil %d", int64(at))
					p.WaitUntil(at)
				case 5, 6:
					parked = append(parked, p)
					log(name, "park")
					p.Park()
				case 7:
					unparkOne(name)
				case 8:
					d := quantize(time.Duration(rnd.Intn(200)))
					log(name, "unpark-event +%d", d)
					s.Schedule(d, func() { unparkOne(name + ".waker") })
				case 9:
					if depth < 2 {
						child := fmt.Sprintf("%s.%d", name, i)
						log(name, "spawn %s", child)
						s.Spawn(child, body(child, 1+rnd.Intn(4), depth+1))
					}
				case 10, 11:
					plain(name, i)
				case 12:
					if len(pending) > 0 {
						j := rnd.Intn(len(pending))
						log(name, "cancel #%d", j)
						s.Cancel(pending[j]) // may already have run: a no-op
					}
				default:
					if rnd.Intn(4) == 0 {
						log(name, "stop")
						s.Stop()
					}
				}
				log(name, "step %d done", i)
			}
			live--
			log(name, "exit")
		}
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("p%d", i)
		s.Spawn(name, body(name, 30+10*i, 0))
	}

	// The ticker sweeps up whoever is still parked (an event-side Unpark)
	// and ends the run once every process has returned.
	ticks := 0
	period := 97 * Nanosecond
	if quantum > 1 {
		period = quantum
	}
	var tk *Ticker
	tk = s.Every(period, func() {
		ticks++
		log("ticker", "tick %d parked %d live %d", ticks, len(parked), live)
		for len(parked) > 0 {
			unpark("ticker", 0)
		}
		if live == 0 {
			tk.Stop()
		}
	})
	s.Schedule(1200*Nanosecond, func() {
		log("stopper", "stop")
		s.Stop()
	})

	s.Run()
	log("driver", "run returned pending %d", s.Pending())
	bound := s.Now()
	for i := 0; i < 16; i++ {
		bound += Time(quantize(time.Duration(40 + rnd.Intn(300))))
		s.RunUntil(bound)
		log("driver", "rununtil %d returned pending %d", int64(bound), s.Pending())
	}
	for rounds := 0; live > 0 || s.Pending() > 0; rounds++ {
		if rounds == 1000 {
			t.Fatalf("seed %d: %d processes still live after %d runs", seed, live, rounds)
		}
		s.Run()
		log("driver", "run returned pending %d", s.Pending())
	}
	return out.String()
}

// TestKernelScheduleMatchesParent is the differential test of the kernel's
// control transfer and event queue: the step-by-step transcript (virtual
// time, Executed(), actor, step) of a seeded random program must equal the
// one the previous kernel (a channel pair per process, an interface heap)
// produced at the commit before it was replaced, captured there with
// -update-kernel-golden.
func TestKernelScheduleMatchesParent(t *testing.T) {
	matchGolden(t, kernelGoldenFile, kernelTranscript(t, 1, 1)+kernelTranscript(t, 7919, 1))
}

// TestKernelCollidingInstantsMatchParent is the same differential test
// with every delay a multiple of 50 ns, so most events join others at
// their instant: same-instant runs that grow while they drain, wake-ups
// that join a run or start one, and cancels anywhere in a run. The
// golden was captured at the commit before the queue held runs.
func TestKernelCollidingInstantsMatchParent(t *testing.T) {
	matchGolden(t, collideGoldenFile, kernelTranscript(t, 3, 50)+kernelTranscript(t, 7919, 50))
}

// ring runs k processes passing one token around for rounds rounds; each
// holder logs, sleeps 10 ns and wakes the next. With bound > 0 the first
// run ends at that RunUntil bound and a later Run finishes the ring. It
// returns the step-by-step transcript and the transfers count.
func ring(k, rounds int, bound Time) (string, uint64) {
	s := New(1)
	var out strings.Builder
	log := func(actor, format string, args ...any) {
		fmt.Fprintf(&out, "%d %d %s %s\n", int64(s.Now()), s.Executed(), actor, fmt.Sprintf(format, args...))
	}
	procs := make([]*Proc, k)
	for i := range procs {
		i := i
		procs[i] = s.Spawn(fmt.Sprintf("r%d", i), func(p *Proc) {
			for n := 0; n < rounds; n++ {
				p.Park()
				log(p.name, "token %d", n)
				p.Sleep(10 * Nanosecond)
				if i < k-1 || n < rounds-1 {
					procs[(i+1)%k].Unpark()
				}
			}
			log(p.name, "exit")
		})
	}
	procs[0].Unpark()
	if bound > 0 {
		s.RunUntil(bound)
		log("driver", "rununtil %d returned pending %d", int64(bound), s.Pending())
	}
	s.Run()
	log("driver", "run returned pending %d", s.Pending())
	return out.String(), s.transfers
}

// TestChainUnwind drives the unwinding half of the hand-over: in a ring of
// three, the last holder's wake-up of the first is for a process further
// up the chain. At 25 ns the third process is asleep with the chain three
// deep, so the RunUntil bound unwinds it to the Run caller, and the next
// Run resumes the ring from there. The transcript must equal the one the
// channel kernel produced at the commit before it was replaced; the count
// pins the cost: per round, k-1 resumes and k-1 yields.
func TestChainUnwind(t *testing.T) {
	got, _ := ring(3, 4, 25)
	matchGolden(t, chainGoldenFile, got)
	if *updateKernelGolden {
		return
	}
	for k := 2; k <= 5; k++ {
		_, few := ring(k, 10, 0)
		_, many := ring(k, 20, 0)
		if got, want := many-few, uint64(10*(2*k-2)); got != want {
			t.Errorf("ring of %d: 10 rounds cost %d transfers, want %d (2k-2 per round)", k, got, want)
		}
	}
}

// TestQueueMatchesStableSort is the differential test of the event queue:
// over random rounds of scheduling (few distinct times, so ties are the
// rule), cancelling and bounded running, events must fire in the order a
// stable sort on time gives — (at, seq), equal times FIFO — with cancelled
// ones skipped. Then random order programs (FuzzEventOrder's) collide
// instants harder: callbacks push into the run being drained and into
// later ones, cancels hit a run's head, middle and tail, a Stop cuts a
// run partway and the next RunUntil drains the rest, and a process's
// sleeps are fast-forwarded between them.
func TestQueueMatchesStableSort(t *testing.T) {
	type ref struct {
		at        Time
		n         int
		id        EventID
		cancelled bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		s := New(seed)
		var fired []int
		fire := func(a any) { fired = append(fired, a.(int)) }
		var model []*ref
		n := 0
		for round := 0; round < 30; round++ {
			for i := rnd.Intn(40); i > 0; i-- {
				r := &ref{at: s.Now() + Time(rnd.Intn(8)), n: n}
				r.id = s.AtCall(r.at, fire, n)
				model = append(model, r)
				n++
			}
			for i := rnd.Intn(10); i > 0 && len(model) > 0; i-- {
				r := model[rnd.Intn(len(model))]
				r.cancelled = true
				s.Cancel(r.id)
			}
			bound := s.Now() + Time(rnd.Intn(6))
			if round == 29 {
				bound = s.Now() + 8
			}
			sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
			var want []int
			for len(model) > 0 && model[0].at <= bound {
				if !model[0].cancelled {
					want = append(want, model[0].n)
				}
				model = model[1:]
			}
			fired = fired[:0]
			s.RunUntil(bound)
			if fmt.Sprint(fired) != fmt.Sprint(want) {
				t.Fatalf("seed %d round %d (until %d): fired %v, stable sort gives %v", seed, round, int64(bound), fired, want)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after the last round", seed, s.Pending())
		}
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		prog := make([]byte, 64+rnd.Intn(2048))
		rnd.Read(prog)
		runOrderProgram(t, prog)
	}
}

// TestSameInstantEventsShareOneRun pins the queue's mechanism by count: a
// burst of events for one instant, and every event its callbacks
// schedule for that instant while it drains, is one run, so one heap
// insertion.
func TestSameInstantEventsShareOneRun(t *testing.T) {
	s := New(1)
	fired := 0
	var fire func()
	fire = func() {
		if fired++; fired <= 100 {
			s.Schedule(0, fire)
		}
	}
	for i := 0; i < 100; i++ {
		s.Schedule(5*Nanosecond, fire)
	}
	s.Run()
	if fired != 200 || s.pushes != 200 || s.starts != 1 {
		t.Fatalf("%d events fired of %d queued in %d runs; want 200 in 1", fired, s.pushes, s.starts)
	}
}

// TestLoneSleepsQueueNothing: a process whose wake-up would be the next
// event popped advances the clock in place. N sleeps, yields and waits
// with nothing else queued push no event, yet count as scheduled and
// executed, and cost no transfer, exactly as the popped wake-ups did. A
// sleep that lands on the instant of a queued event, or beyond the
// RunUntil bound, still queues its wake-up behind it.
func TestLoneSleepsQueueNothing(t *testing.T) {
	const n = 1000
	s := New(1)
	var woke []Time
	s.Schedule(1500*Nanosecond, func() {})
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Nanosecond)
			p.Yield()
			p.WaitUntil(p.Now() + 1)
			woke = append(woke, p.Now())
		}
	})
	s.RunUntil(1000)
	// The spawn and the event at 1500 ns, and the wake-up at 1001 ns that
	// lies beyond the bound.
	if s.pushes != 3 || s.Executed() != 1+3*500 || s.Now() != 1000 {
		t.Fatalf("until 1000 ns: %d events queued, %d executed, clock %v; want 3, 1501, 1000ns", s.pushes, s.Executed(), s.Now())
	}
	s.Run()
	// One more: the wake-up at 1500 ns, behind the event there.
	if s.pushes != 4 || s.Executed() != 1+1+3*n || s.transfers != 2+2 {
		t.Fatalf("%d events queued, %d executed, %d transfers; want 4, %d, 4 (start, unwind at the bound, resume, exit)", s.pushes, s.Executed(), s.transfers, 2+3*n)
	}
	if len(woke) != n || woke[n-1] != 2*n {
		t.Fatalf("woke %d times, last at %v; want %d, %v", len(woke), woke[len(woke)-1], n, Time(2*n))
	}

	// After a Stop the sleep queues its wake-up and the run returns.
	s = New(1)
	s.Spawn("stopper", func(p *Proc) {
		s.Stop()
		p.Sleep(Nanosecond)
	})
	s.Run()
	if s.Pending() != 1 || s.Now() != 0 {
		t.Fatalf("a sleep after Stop: %d pending at %v; want its wake-up pending at 0s", s.Pending(), s.Now())
	}
	s.Run()
}

// sleeperTransfers runs one process that sleeps n times and returns how
// many times control changed goroutine.
func sleeperTransfers(n int) uint64 {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Nanosecond)
		}
	})
	s.Run()
	return s.transfers
}

// TestOwnWakeupCostsNoTransfer pins the mechanism by count: a process
// whose own wake-up is the next event keeps control, so its sleeps cost
// no hand-over at all — only its start and its exit do.
func TestOwnWakeupCostsNoTransfer(t *testing.T) {
	if few, many := sleeperTransfers(3), sleeperTransfers(3000); few != 2 || many != 2 {
		t.Fatalf("transfers: %d for 3 sleeps, %d for 3000; want 2 for both (start, exit)", few, many)
	}
}

// pingPongTransfers runs n Park/Unpark round trips between two processes
// and returns how many times control changed goroutine.
func pingPongTransfers(n int) uint64 {
	s := New(1)
	var ping, pong *Proc
	pong = s.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park()
			ping.Unpark()
		}
	})
	ping = s.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			pong.Unpark()
			p.Park()
		}
	})
	s.Run()
	return s.transfers
}

// TestOtherWakeupCostsOneTransfer: waking another process is exactly one
// hand-over — straight to it, not via the Run caller.
func TestOtherWakeupCostsOneTransfer(t *testing.T) {
	base := pingPongTransfers(0) // two starts, two exits
	for _, n := range []int{1, 10, 1000} {
		if got, want := pingPongTransfers(n)-base, uint64(2*n); got != want {
			t.Fatalf("%d round trips (%d wake-ups of the other process) cost %d transfers, want %d", n, 2*n, got, want)
		}
	}
}

// TestKernelSteadyStateAllocFree: a modelled wait, a wake-up of another
// process, a tick, a long run of same-instant callbacks and a
// fast-forwarded sleep allocate nothing once the event freelist is warm.
func TestKernelSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	done := false
	var waiter *Proc
	waiter = s.Spawn("waiter", func(p *Proc) {
		for !done {
			p.Park()
		}
	})
	s.Spawn("sleeper", func(p *Proc) {
		for !done {
			p.Sleep(Nanosecond)
			waiter.Unpark()
			p.Yield() // the waiter is back in Park before the next Unpark
		}
	})
	ticks := 0
	tk := s.Every(Nanosecond, func() { ticks++ })
	s.RunFor(100 * Nanosecond)
	before := ticks
	if avg := testing.AllocsPerRun(10, func() { s.RunFor(1000 * Nanosecond) }); avg != 0 {
		t.Errorf("1000 sleeps, 1000 park/unpark pairs and 1000 ticks allocate %.0f objects, want 0", avg)
	}
	if ticks-before != 11*1000 {
		t.Errorf("ticker fired %d times in 11 runs of 1000 ns, want 11000", ticks-before)
	}
	done = true
	tk.Stop()
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("%d events left after the processes exited", s.Pending())
	}

	// Every 100 ns a tick schedules a burst of 64 callbacks at its own
	// instant, which drain as one run, while a process sleeps 1 ns at a
	// time with nothing queued before its wake-up but at the ticks.
	s = New(1)
	done = false
	burst := 0
	one := func() { burst++ }
	tk = s.Every(100*Nanosecond, func() {
		for i := 0; i < 64; i++ {
			s.Schedule(0, one)
		}
	})
	s.Spawn("lone", func(p *Proc) {
		for !done {
			p.Sleep(Nanosecond)
		}
	})
	s.RunFor(1000 * Nanosecond)
	burst, pushes := 0, s.pushes
	if avg := testing.AllocsPerRun(10, func() { s.RunFor(1000 * Nanosecond) }); avg != 0 {
		t.Errorf("10 bursts of 64 same-instant callbacks and 1000 sleeps allocate %.0f objects, want 0", avg)
	}
	// Per 1000 ns: 10 ticks, 640 callbacks, and 20 wake-ups — the 10 that
	// land on a tick's instant, and the 10 the process schedules there
	// while the tick's burst is still queued; the other 980 sleeps queue
	// nothing.
	if burst != 11*640 || s.pushes-pushes != 11*670 {
		t.Errorf("11 runs of 1000 ns: %d callbacks, %d events queued; want %d, %d", burst, s.pushes-pushes, 11*640, 11*670)
	}
	done = true
	tk.Stop()
	s.Run()
}

// TestWakeOfFinishedProcPanics: a wake-up that comes up after the body
// has returned has no goroutine to go to; it panics with the process's
// name, as Sleep and Park on a finished process do.
func TestWakeOfFinishedProcPanics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		parks   bool // the body parks once before it returns
		unparks int  // sent after the first run has drained
	}{
		{"unpark after exit", false, 1},
		{"second unpark lands after exit", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			p := s.Spawn("gone", func(p *Proc) {
				if tc.parks {
					p.Park()
				}
			})
			s.Run()
			for i := 0; i < tc.unparks; i++ {
				p.Unpark()
			}
			defer func() {
				if r, want := recover(), `sim: wake of finished proc "gone"`; r != want {
					t.Fatalf("recovered %v, want %q", r, want)
				}
			}()
			s.Run()
			t.Fatal("the wake-up of a finished process did not panic")
		})
	}
}
