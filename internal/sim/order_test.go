package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// orderDelays are the only delays an order program draws, so most of its
// events share their instant with others.
var orderDelays = [...]time.Duration{0, 0, 1, 2, 3, 7}

// orderRef is one event of the reference queue.
type orderRef struct {
	at        Time
	n         int
	id        EventID // 0: a process wake-up, which cannot be cancelled
	cancelled bool
}

// orderCheck runs an order program: a byte string read as schedules,
// cancels, RunUntil bounds, callbacks that schedule, cancel and stop,
// and a process that sleeps, yields and waits. Every event that fires is
// checked, when it fires, against a reference that keeps the pending
// events in a plain slice sorted stably by instant, so that equal
// instants stay in scheduling order: the (at, seq) order by
// construction.
type orderCheck struct {
	tb      testing.TB
	s       *Simulator
	prog    []byte
	pc      int
	ref     []*orderRef
	tags    int
	ran     uint64 // events the reference has run
	stopped bool   // a callback called Stop in the current run
	fire    func(any)
}

// next returns the program's next byte, or 0 once it is used up.
func (c *orderCheck) next() int {
	if c.pc >= len(c.prog) {
		return 0
	}
	c.pc++
	return int(c.prog[c.pc-1])
}

func (c *orderCheck) delay() time.Duration { return orderDelays[c.next()%len(orderDelays)] }

// insert adds r after every pending event at or before its instant.
func (c *orderCheck) insert(r *orderRef) {
	i := sort.Search(len(c.ref), func(i int) bool { return c.ref[i].at > r.at })
	c.ref = append(c.ref, nil)
	copy(c.ref[i+1:], c.ref[i:])
	c.ref[i] = r
}

// schedule schedules an event d from now through one of the three
// scheduling calls.
func (c *orderCheck) schedule(d time.Duration) {
	r := &orderRef{at: c.s.Now().Add(d), n: c.tags}
	c.tags++
	switch c.next() % 3 {
	case 0:
		r.id = c.s.ScheduleCall(d, c.fire, r)
	case 1:
		r.id = c.s.AtCall(r.at, c.fire, r)
	default:
		r.id = c.s.Schedule(d, func() { c.fire(r) })
	}
	c.insert(r)
}

// cancel cancels the head, middle or tail of the pending events of one
// instant, both chosen by arg.
func (c *orderCheck) cancel(arg int) {
	var instants []Time
	for _, r := range c.ref {
		if r.id != 0 && !r.cancelled && (len(instants) == 0 || instants[len(instants)-1] != r.at) {
			instants = append(instants, r.at)
		}
	}
	if len(instants) == 0 {
		return
	}
	at := instants[arg%len(instants)]
	var run []*orderRef
	for _, r := range c.ref {
		if r.at == at && r.id != 0 && !r.cancelled {
			run = append(run, r)
		}
	}
	r := run[[]int{0, len(run) / 2, len(run) - 1}[arg/len(instants)%3]]
	r.cancelled = true
	c.s.Cancel(r.id)
}

// expect checks that got is the reference's next event and takes it.
func (c *orderCheck) expect(got *orderRef) {
	c.tb.Helper()
	for len(c.ref) > 0 && c.ref[0].cancelled {
		c.ref = c.ref[1:]
	}
	if len(c.ref) == 0 || c.ref[0] != got {
		want := "nothing"
		if len(c.ref) > 0 {
			want = formatRef(c.ref[0])
		}
		c.tb.Fatalf("at %d: %s ran, the stable sort has %s next", c.s.Now(), formatRef(got), want)
	}
	if c.s.Now() != got.at {
		c.tb.Fatalf("%s ran at %d", formatRef(got), c.s.Now())
	}
	if c.stopped {
		c.tb.Fatalf("%s ran after Stop", formatRef(got))
	}
	c.ref = c.ref[1:]
	c.ran++
}

func formatRef(r *orderRef) string { return fmt.Sprintf("event %d (at %d)", r.n, r.at) }

// callback is what a fired event does: check its place, then, as the
// program says, schedule up to two events (delay 0 joins the run being
// drained), cancel one and Stop the run.
func (c *orderCheck) callback(r *orderRef) {
	c.expect(r)
	a := c.next()
	if a == 0 {
		return
	}
	for i := a % 3; i > 0; i-- {
		c.schedule(c.delay())
	}
	if a&0x10 != 0 {
		c.cancel(c.next())
	}
	if a&0xE0 == 0xE0 {
		c.stopped = true
		c.s.Stop()
	}
}

// sleeper is the program's process: each step sleeps, yields or waits
// for an instant drawn from orderDelays, and may schedule an event or
// Stop the run first. Its wake-ups are events of the reference too.
func (c *orderCheck) sleeper(p *Proc) {
	for c.pc < len(c.prog) {
		a := c.next()
		if a&0x80 != 0 {
			c.schedule(c.delay())
		}
		if a%64 >= 60 {
			c.stopped = true
			c.s.Stop()
		}
		d, kind := orderDelays[a%len(orderDelays)], a>>5&3
		switch {
		case kind == 0:
			d = 0 // Yield is Sleep(0)
		case kind == 1 && d == 0:
			p.WaitUntil(c.s.Now()) // returns at once and queues nothing
			continue
		}
		r := &orderRef{at: c.s.Now().Add(d), n: c.tags}
		c.tags++
		c.insert(r)
		switch kind {
		case 0:
			p.Yield()
		case 1:
			p.WaitUntil(r.at)
		default:
			p.Sleep(d)
		}
		c.expect(r)
	}
}

// settle checks the queue after a run to bound (math.MaxInt64: Run):
// its pending count is the reference's, every event counted as executed
// ran, and a run that no callback stopped left nothing at or before its
// bound and, under RunUntil, the clock at the bound.
func (c *orderCheck) settle(bound Time) {
	c.tb.Helper()
	if !c.stopped {
		for len(c.ref) > 0 && c.ref[0].cancelled && c.ref[0].at <= bound {
			c.ref = c.ref[1:]
		}
		if len(c.ref) > 0 && c.ref[0].at <= bound {
			c.tb.Fatalf("run until %d returned with %s pending", bound, formatRef(c.ref[0]))
		}
		if bound != math.MaxInt64 && c.s.Now() != bound {
			c.tb.Fatalf("run until %d left the clock at %d", bound, c.s.Now())
		}
	}
	if c.s.Pending() != len(c.ref) {
		c.tb.Fatalf("run until %d: %d events pending, the reference has %d", bound, c.s.Pending(), len(c.ref))
	}
	if c.s.Executed() != c.ran {
		c.tb.Fatalf("run until %d: %d events executed, the reference ran %d", bound, c.s.Executed(), c.ran)
	}
	c.stopped = false
}

// runOrderProgram runs prog and checks every event's place in the
// order, and the queue after every run.
func runOrderProgram(tb testing.TB, prog []byte) {
	c := &orderCheck{tb: tb, s: New(1), prog: prog}
	c.fire = func(a any) { c.callback(a.(*orderRef)) }
	if len(prog) > 0 && prog[0]&1 != 0 {
		start := &orderRef{n: c.tags}
		c.tags++
		c.insert(start)
		c.s.Spawn("sleeper", func(p *Proc) {
			c.expect(start)
			c.sleeper(p)
		})
	}
	for c.pc < len(c.prog) {
		switch op := c.next(); op % 4 {
		case 0, 1:
			c.schedule(c.delay())
		case 2:
			c.cancel(op >> 2)
		default:
			bound := c.s.Now().Add(c.delay())
			c.s.RunUntil(bound)
			c.settle(bound)
		}
	}
	for rounds := 0; len(c.ref) > 0; rounds++ {
		if rounds == 1000 {
			tb.Fatalf("%d events still pending after %d runs", len(c.ref), rounds)
		}
		c.s.Run()
		c.settle(math.MaxInt64)
	}
}

// FuzzEventOrder runs order programs: schedules, cancels of a run's
// head, middle or tail, RunUntil bounds, callbacks that schedule into
// the run being drained and Stop it partway, and a process whose
// sleeps are fast-forwarded whenever nothing is queued at or before its
// wake-up. Every event must run where a stable sort by (at, seq) puts
// it, and Pending and Executed must match the reference after every run.
func FuzzEventOrder(f *testing.F) {
	rnd := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 8, 64, 512} {
		prog := make([]byte, n)
		rnd.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runOrderProgram(t, prog) })
}
