package usecases_test

// The Go oracles of the use-case reactions and the differential test
// that holds each rcl body to its oracle. An oracle runs live as a
// native reaction inside the real scenario, so the poll stream it sees
// is the one the Go detectors saw before the bodies moved into P4R; the
// recorder keeps that stream (fields, registers, now, channel_clean
// answers) with the decisions the oracle made on each poll, and the rcl
// body then replays the stream and must make the same decisions. This is
// an external test package because it drives the fabric, which imports
// usecases.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rcl"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// poll is one reaction invocation: its inputs and the decisions the
// oracle made on them, each rendered the way the replay host renders the
// rcl body's.
type poll struct {
	now    sim.Time
	fields map[string]uint64
	regs   map[string][]uint64
	clean  []bool
	want   []string
}

// live is the oracle's view of one invocation: it reads the poll, and
// every effect it stages is recorded and forwarded to the agent.
type live struct {
	ctx   *core.Ctx
	p     *poll
	clean func() bool
}

func (l *live) Now() sim.Time             { return l.p.now }
func (l *live) Field(name string) uint64  { return l.p.fields[name] }
func (l *live) Reg(name string) []uint64  { return l.p.regs[name] }
func (l *live) decide(f string, a ...any) { l.p.want = append(l.p.want, fmt.Sprintf(f, a...)) }

func (l *live) ChannelClean() bool {
	c := l.clean()
	l.p.clean = append(l.p.clean, c)
	return c
}

func (l *live) Emit(kind string, key, val uint64) {
	l.decide("emit(%q, %d, %d)", kind, key, val)
	l.ctx.Emit(kind, key, val)
}

func (l *live) AddEntry(table string, key uint64, action string) error {
	l.decide("%s.addEntry(%d, %q)", table, key, action)
	tbl, err := l.ctx.Table(table)
	if err != nil {
		return err
	}
	_, err = tbl.AddEntry(core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(key)}, Action: action})
	return err
}

func (l *live) ModEntry(table string, h core.UserHandle, action string, arg uint64) error {
	l.decide("%s.modEntry(%d, %q, %d)", table, h, action, arg)
	tbl, err := l.ctx.Table(table)
	if err != nil {
		return err
	}
	return tbl.ModifyEntry(h, action, []uint64{arg})
}

func (l *live) SetMbl(name string, v uint64) error {
	l.decide("${%s} = %d", name, v)
	return l.ctx.SetMbl(name, v)
}

// recording is one agent's recorded stream of one reaction.
type recording struct {
	info  *compiler.ReactionInfo
	polls []*poll
}

// record registers oracle as agent's reaction name. clean answers
// channel_clean (nil: always clean).
func record(t *testing.T, agent *core.Agent, plan *compiler.Plan, name string, clean func() bool, oracle func(*live) error) *recording {
	t.Helper()
	rec := &recording{}
	for _, info := range plan.Reactions {
		if info.Name == name {
			rec.info = info
		}
	}
	if clean == nil {
		clean = func() bool { return true }
	}
	err := agent.RegisterNativeReaction(name, func(ctx *core.Ctx) error {
		p := &poll{now: ctx.Now(), fields: map[string]uint64{}, regs: map[string][]uint64{}}
		for _, s := range append(slices.Clone(rec.info.IngSlots), rec.info.EgrSlots...) {
			for _, f := range s.Fields {
				p.fields[f.Param] = ctx.Field(f.Param)
			}
		}
		for _, rp := range rec.info.RegParams {
			p.regs[rp.Var] = slices.Clone(ctx.Reg(rp.Var))
		}
		rec.polls = append(rec.polls, p)
		return oracle(&live{ctx: ctx, p: p, clean: clean})
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// replayHost answers the rcl body from a recorded poll and renders its
// decisions.
type replayHost struct {
	p     *poll
	clean int
	got   []string
}

func (h *replayHost) ReadMbl(name string) (int64, error) {
	return 0, fmt.Errorf("unrecorded malleable read ${%s}", name)
}

func (h *replayHost) WriteMbl(name string, v int64) error {
	h.got = append(h.got, fmt.Sprintf("${%s} = %d", name, v))
	return nil
}

func (h *replayHost) TableOp(table, method string, args []rcl.Arg) (int64, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		if a.IsStr {
			parts[i] = fmt.Sprintf("%q", a.S)
		} else {
			parts[i] = fmt.Sprint(uint64(a.I))
		}
	}
	h.got = append(h.got, fmt.Sprintf("%s.%s(%s)", table, method, strings.Join(parts, ", ")))
	return 0, nil
}

func (h *replayHost) Call(name string, args []rcl.Arg) (int64, error) {
	switch name {
	case "now":
		return int64(h.p.now), nil
	case "channel_clean":
		if h.clean >= len(h.p.clean) {
			return 0, fmt.Errorf("channel_clean called more often than the oracle asked")
		}
		h.clean++
		if h.p.clean[h.clean-1] {
			return 1, nil
		}
		return 0, nil
	case "emit":
		kind, key, val := args[0].S, uint64(args[1].I), uint64(args[2].I)
		if kind == usecases.EventPolarWindow {
			// The decision is the ratio RunPolar computes from the event.
			h.got = append(h.got, fmt.Sprintf("window %v", float64(key)/8/(float64(val)/4)))
		} else {
			h.got = append(h.got, fmt.Sprintf("emit(%q, %d, %d)", kind, key, val))
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unknown builtin %s", name)
}

// replay runs the reaction's rcl body over the recorded stream and fails
// t at the first poll whose decisions differ from the oracle's. It
// returns the number of decisions compared.
func (rec *recording) replay(t *testing.T, label string) int {
	t.Helper()
	info := rec.info
	fr := rcl.NewProgram(info.Stmts).NewFrame()
	scalars := map[string]*int64{}
	for _, s := range append(slices.Clone(info.IngSlots), info.EgrSlots...) {
		for _, f := range s.Fields {
			scalars[f.Param] = fr.BindScalar(f.Var)
		}
	}
	arrays := map[string][]int64{}
	for _, rp := range info.RegParams {
		arrays[rp.Var] = make([]int64, rp.Hi+1)
		fr.BindArray(rp.Var, arrays[rp.Var])
	}
	decisions := 0
	for i, p := range rec.polls {
		for k, v := range p.fields {
			*scalars[k] = int64(v)
		}
		for k, v := range p.regs {
			for j, x := range v {
				arrays[k][j] = int64(x)
			}
		}
		h := &replayHost{p: p}
		if err := fr.Exec(h); err != nil {
			t.Fatalf("%s %s poll %d at %v: %v", label, info.Name, i, p.now, err)
		}
		if !slices.Equal(h.got, p.want) || h.clean != len(p.clean) {
			t.Fatalf("%s %s poll %d at %v (channel_clean asked %d, oracle %d):\n rcl    %q\n oracle %q",
				label, info.Name, i, p.now, h.clean, len(p.clean), h.got, p.want)
		}
		decisions += len(p.want)
	}
	return decisions
}

// dosOracle is use case #1's decision as usecases.DosDetector makes it,
// with React's effects staged through the recorder.
func dosOracle(minDuration time.Duration) func(*live) error {
	det := usecases.NewDosDetector(usecases.DosConfig{ThresholdBps: 1e9, MinDuration: minDuration})
	return func(l *live) error {
		src := l.Field("ipv4.srcAddr")
		est, rate, block := det.Observe(l.Now(), src, l.Reg("total_bytes")[0])
		if est == 0 {
			return nil
		}
		l.Emit(usecases.EventHHEstimate, src, est)
		if !block {
			return nil
		}
		if err := l.AddEntry("blocklist", src, "drop_pkt"); err != nil {
			return err
		}
		l.Emit(usecases.EventDosBlock, src, rate)
		return nil
	}
}

// grayRoute is one destination's route the gray oracle manages: the
// entry handle the prologue got for it, its primary and backup ports.
type grayRoute struct {
	handle          core.UserHandle
	primary, backup int
}

// grayOracle is use case #2's detector in Go (§8.3.2): a window of Td
// delivering fewer than floor(eta·Td/Ts) heartbeats strikes a port, and
// strikesToFail consecutive strikes latch it. With healsToClear > 0, a
// latched port that meets floor(healEta·Td/Ts) that many windows in a
// row unlatches. With skip, a window channel_clean() calls dirty is
// discarded.
type grayOracle struct {
	ts                          time.Duration
	eta, healEta                float64
	strikesToFail, healsToClear int
	skip                        bool
	monitored                   []int
	routes                      []grayRoute

	lastCounts []uint64
	lastPoll   sim.Time
	strikes    map[int]int
	heals      map[int]int
	seen       map[int]bool
	failed     map[int]bool
}

func (g *grayOracle) react(l *live) error {
	if g.strikes == nil {
		g.lastCounts = make([]uint64, 32)
		g.strikes, g.heals = map[int]int{}, map[int]int{}
		g.seen, g.failed = map[int]bool{}, map[int]bool{}
	}
	counts := l.Reg("hb_count")
	now := l.Now()
	if g.lastPoll == 0 {
		g.lastPoll = now
		copy(g.lastCounts, counts)
		return nil
	}
	td := now.Sub(g.lastPoll)
	g.lastPoll = now
	expected := uint64(g.eta * float64(td) / float64(g.ts))
	healExpected := uint64(g.healEta * float64(td) / float64(g.ts))
	measurable := !g.skip || l.ChannelClean()
	for _, port := range g.monitored {
		got := counts[port] - g.lastCounts[port]
		g.lastCounts[port] = counts[port]
		if got > 0 {
			g.seen[port] = true
		}
		if !measurable {
			continue
		}
		if g.failed[port] {
			if g.healsToClear <= 0 {
				continue
			}
			if got >= healExpected && healExpected > 0 {
				g.heals[port]++
			} else {
				g.heals[port] = 0
			}
			if g.heals[port] < g.healsToClear {
				continue
			}
			g.failed[port] = false
			g.heals[port], g.strikes[port] = 0, 0
			if err := g.move(l, port, false); err != nil {
				return err
			}
			l.Emit(usecases.EventGrayClear, uint64(port), got)
			continue
		}
		if !g.seen[port] {
			continue
		}
		if got < expected {
			g.strikes[port]++
		} else {
			g.strikes[port] = 0
		}
		if g.strikes[port] < g.strikesToFail {
			continue
		}
		g.failed[port] = true
		g.heals[port] = 0
		if err := g.move(l, port, true); err != nil {
			return err
		}
		l.Emit(usecases.EventGraySuspect, uint64(port), got)
	}
	return nil
}

// move sends the routes whose primary is port to their backups, or back.
func (g *grayOracle) move(l *live, port int, toBackup bool) error {
	for _, r := range g.routes {
		if r.primary != port {
			continue
		}
		to := r.primary
		if toBackup {
			to = r.backup
		}
		if err := l.ModEntry("route", r.handle, "route_pkt", uint64(to)); err != nil {
			return err
		}
	}
	return nil
}

// fig16Oracle is the gray oracle as GrayP4R configures it: ports 2-5,
// T_s = 1 µs, two strikes, no heal, and the prologue's route p-1 → p
// with backup 31 for each port p.
func fig16Oracle(eta float64) *grayOracle {
	g := &grayOracle{ts: time.Microsecond, eta: eta, strikesToFail: 2, monitored: []int{2, 3, 4, 5}}
	for _, p := range g.monitored {
		g.routes = append(g.routes, grayRoute{handle: core.UserHandle(p - 1), primary: p, backup: 31})
	}
	return g
}

// leafGrayOracle is the gray oracle as LeafP4R configures it.
func leafGrayOracle(f *fabric.Fabric) *grayOracle {
	g := &grayOracle{ts: 500 * time.Nanosecond, eta: 0.75, healEta: 0.99, strikesToFail: 2, healsToClear: 3, skip: true}
	for sp := range f.Spines {
		g.monitored = append(g.monitored, f.UplinkPort(sp))
	}
	return g
}

// leafClean answers channel_clean from the leaf agent's own channel.
func leafClean(leaf *fabric.Node) func() bool {
	var last uint64
	return func() bool {
		st := leaf.AgentCli.ChanStats()
		n := st.Retransmits + st.Timeouts
		clean := n == last
		last = n
		return clean
	}
}

// polarOracle is use case #3's detector in Go: MAD/mean of the per-path
// deltas, in float, above 0.5 for three windows in a row shifts the hash
// input. It reports each window's ratio as the decision and emits the
// window event with the doubled sum of distances, which is exact.
type polarOracle struct {
	lastCounts [5]uint64
	strikes    int
	alt        uint64
}

func (d *polarOracle) react(l *live) error {
	counts := l.Reg("egr_pkts")
	deltas := make([]float64, 4)
	total := 0.0
	for i := range deltas {
		port := i + 1
		deltas[i] = float64(counts[port] - d.lastCounts[port])
		d.lastCounts[port] = counts[port]
		total += deltas[i]
	}
	if total == 0 {
		return nil
	}
	mad := meanAbsDevFromMedian(deltas)
	ratio := mad / (total / float64(len(deltas)))
	l.decide("window %v", ratio)
	l.ctx.Emit(usecases.EventPolarWindow, uint64(8*mad), uint64(total))
	if ratio <= 0.5 {
		d.strikes = 0
		return nil
	}
	d.strikes++
	if d.strikes < 3 {
		return nil
	}
	d.strikes = 0
	d.alt = (d.alt + 1) % 2
	if err := l.SetMbl("hash_in", d.alt); err != nil {
		return err
	}
	l.Emit(usecases.EventPolarShift, d.alt, 0)
	return nil
}

// meanAbsDevFromMedian is the mean absolute deviation from the median
// (the average of the two middles for an even count), 0 for no values.
// Unlike the median-of-deviations MAD, it flags a single hot outlier
// among many idle values (MAD proper is 0 when fewer than half the
// values deviate), which is exactly the single-hot-path shape of hash
// polarization.
func meanAbsDevFromMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Abs(x - med)
	}
	return sum / float64(n)
}

func TestMAD(t *testing.T) {
	// Balanced: identical values -> deviation 0.
	if meanAbsDevFromMedian([]float64{7, 7, 7, 7}) != 0 {
		t.Fatal("uniform")
	}
	// {1,2,3,4,9}: median 3, deviations {2,1,0,1,6}, mean 2.
	if meanAbsDevFromMedian([]float64{1, 2, 3, 4, 9}) != 2 {
		t.Fatal("mean absolute deviation")
	}
	// One hot path among idle ones — the polarized shape — is flagged,
	// where the median of the deviations would read 0.
	if meanAbsDevFromMedian([]float64{0, 0, 0, 400}) != 100 {
		t.Fatal("single hot outlier")
	}
	// An imbalanced port distribution deviates more than a balanced one.
	balanced := meanAbsDevFromMedian([]float64{100, 101, 99, 100})
	skewed := meanAbsDevFromMedian([]float64{10, 200, 15, 180})
	if skewed <= balanced {
		t.Fatalf("skewed=%v balanced=%v", skewed, balanced)
	}
	if meanAbsDevFromMedian(nil) != 0 {
		t.Fatal("empty")
	}
}

// Property: the deviation from the median is translation invariant.
func TestPropertyMADTranslationInvariant(t *testing.T) {
	f := func(raw []int16, shift int16) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, x := range raw {
			a[i] = float64(x)
			b[i] = float64(x) + float64(shift)
		}
		return math.Abs(meanAbsDevFromMedian(a)-meanAbsDevFromMedian(b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReactionsMatchOracles replays every ported reaction's poll stream
// through its rcl body and requires the oracle's decisions on every
// poll: Fig. 15, every Fig. 16 sweep point and trial, RunPolar, the DoS
// fabric's leaves (both reactions) and the reroute fabric's gray leaves,
// at the sizes, modes and seeds the experiments run.
func TestReactionsMatchOracles(t *testing.T) {
	t.Run("fig15", func(t *testing.T) {
		rig, err := usecases.BuildDos(1, usecases.DefaultDosAddressing().Routes(25))
		if err != nil {
			t.Fatal(err)
		}
		rec := record(t, rig.Agent, rig.Plan, "dos_react", nil, dosOracle(50*time.Microsecond))
		res, err := rig.RunFig15(usecases.DefaultFig15Config())
		if err != nil {
			t.Fatal(err)
		}
		if rec.replay(t, "fig15") == 0 || res.BlockedAt == 0 {
			t.Fatal("the stream holds no block")
		}
	})
	t.Run("fig16", func(t *testing.T) {
		type point struct {
			td  time.Duration
			eta float64
		}
		var pts []point
		for _, td := range []time.Duration{20, 50, 100, 200, 500} {
			pts = append(pts, point{td * time.Microsecond, 0.5})
		}
		for _, eta := range []float64{0.2, 0.4, 0.6, 0.8, 0.9} {
			pts = append(pts, point{50 * time.Microsecond, eta})
		}
		const trials = 5
		for _, pt := range pts {
			for trial := 0; trial < trials; trial++ {
				rig, err := usecases.BuildGray(int64(trial+1), pt.td, pt.eta)
				if err != nil {
					t.Fatal(err)
				}
				rec := record(t, rig.Agent, rig.Plan, "gray_react", nil, fig16Oracle(pt.eta).react)
				failAt := 300*time.Microsecond + time.Duration(trial)*pt.td/trials
				res, err := rig.RunFig16(3, failAt)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("td=%v eta=%v trial %d", pt.td, pt.eta, trial)
				if rec.replay(t, label) == 0 || !res.Detected {
					t.Fatalf("%s: the stream holds no detection", label)
				}
			}
		}
	})
	t.Run("polar", func(t *testing.T) {
		for _, seed := range []int64{1, 3} {
			rig, err := usecases.BuildPolar(seed, 50*time.Microsecond)
			if err != nil {
				t.Fatal(err)
			}
			rec := record(t, rig.Agent, rig.Plan, "polar_react", nil, (&polarOracle{}).react)
			res, err := rig.RunPolar(3 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if rec.replay(t, fmt.Sprint("seed ", seed)) == 0 || !res.Shifted {
				t.Fatalf("seed %d: the stream holds no shift", seed)
			}
		}
	})
	sizes := []struct{ leaves, spines int }{{2, 2}, {4, 2}, {6, 3}}
	t.Run("dos-fabric", func(t *testing.T) {
		var cfgs []fabric.Config
		for i, sz := range sizes {
			cfgs = append(cfgs, fabric.Config{Leaves: sz.leaves, Spines: sz.spines, Seed: 1 + int64(i)*1000})
		}
		// Every control link lossy, so channel_clean() answers dirty
		// windows too.
		lossy := fabric.Config{Leaves: 2, Spines: 2, Seed: 11, CtlOpDeadline: 2 * time.Millisecond}
		lossy.CtlProfile.Loss = 0.2
		cfgs = append(cfgs, lossy)
		dirty := 0
		for i, cfg := range cfgs {
			d, err := fabric.NewDosFabric(sim.New(1+int64(i)), fabric.DosFabricConfig{Fabric: cfg})
			if err != nil {
				t.Fatal(err)
			}
			var recs []*recording
			for _, leaf := range d.F.Leaves {
				recs = append(recs,
					record(t, leaf.Agent, leaf.Plan, "dos_react", nil, dosOracle(200*time.Microsecond)),
					record(t, leaf.Agent, leaf.Plan, "gray_react", leafClean(leaf), leafGrayOracle(d.F).react))
			}
			if err := d.Run(2*time.Millisecond, 4*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			for j, rec := range recs {
				rec.replay(t, fmt.Sprintf("fabric %d %s", i, d.F.Leaves[j/2].Name))
				for _, p := range rec.polls {
					if len(p.clean) == 1 && !p.clean[0] {
						dirty++
					}
				}
			}
			if d.Escalation() == nil {
				t.Fatalf("fabric %d: the streams hold no block", i)
			}
		}
		if dirty == 0 {
			t.Fatal("no poll saw a dirty channel")
		}
	})
	t.Run("reroute-fabric", func(t *testing.T) {
		suspects := 0
		for i, mode := range []fabric.RerouteMode{fabric.ModeLinkDown, fabric.ModeGray, fabric.ModeCrash} {
			for j, sz := range sizes {
				k := int64(i*len(sizes) + j)
				s := sim.New(1 + k)
				r, err := fabric.NewRerouteFabric(s, fabric.RerouteFabricConfig{
					Fabric: fabric.Config{Leaves: sz.leaves, Spines: sz.spines, Seed: 1 + k*1000},
					Mode:   mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				var recs []*recording
				for _, leaf := range r.F.Leaves {
					recs = append(recs, record(t, leaf.Agent, leaf.Plan, "gray_react", leafClean(leaf), leafGrayOracle(r.F).react))
				}
				if err := r.Run(time.Millisecond, 2*time.Millisecond, 2*time.Millisecond); err != nil {
					t.Fatal(err)
				}
				for l, rec := range recs {
					rec.replay(t, fmt.Sprintf("%s %dx%d leaf%d", mode, sz.leaves, sz.spines, l))
				}
				suspects += int(r.F.Coord.Stats().GraySuspects)
			}
		}
		if suspects == 0 {
			t.Fatal("the streams hold no gray.suspect")
		}
	})
}

// TestGrayHealUnlatchesAndEmits pins the gray oracle's heal, which
// LeafP4R's body is held to: with a heal count set, a gray port that
// starts delivering again is unlatched (its route restored to the
// primary), and gray.suspect / gray.clear fire with Key = port through
// the agent's event sink.
func TestGrayHealUnlatchesAndEmits(t *testing.T) {
	rig, err := usecases.BuildGray(1, 30*time.Microsecond, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := fig16Oracle(0.5)
	g.healEta, g.healsToClear = 0.5, 2
	record(t, rig.Agent, rig.Plan, "gray_react", nil, g.react)
	for _, hb := range rig.Heartbeaters {
		hb.Start()
	}
	latched := func() bool {
		n := 0
		for _, ev := range rig.Events {
			switch ev.Kind {
			case usecases.EventGraySuspect:
				n++
			case usecases.EventGrayClear:
				n--
			}
		}
		return n > 0
	}
	rig.Agent.Start()
	rig.Sim.RunFor(300 * time.Microsecond)
	rig.Heartbeaters[3].Enabled = false
	rig.Sim.RunFor(500 * time.Microsecond)
	if !latched() {
		t.Fatal("port 3 not detected while silent")
	}
	rig.Heartbeaters[3].Enabled = true
	rig.Sim.RunFor(500 * time.Microsecond)
	rig.Agent.Stop()
	rig.Sim.RunFor(time.Millisecond)
	if err := rig.Agent.Err(); err != nil {
		t.Fatal(err)
	}
	if latched() {
		t.Fatal("port 3 still latched failed after heal")
	}
	var suspects, clears int
	for _, ev := range rig.Events {
		switch ev.Kind {
		case usecases.EventGraySuspect:
			suspects++
		case usecases.EventGrayClear:
			clears++
		}
		if ev.Key != 3 {
			t.Fatalf("event %s on port %d, want 3", ev.Kind, ev.Key)
		}
	}
	if suspects != 1 || clears != 1 {
		t.Fatalf("events: %d suspects, %d clears, want 1 and 1 (%+v)", suspects, clears, rig.Events)
	}
	// Port 3's route must be back on its primary.
	ents, err := rig.Sw.Entries("route")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Keys[0].Value == 0xC0A80001 && (e.Action != "route_pkt" || e.Data[0] != 3) {
			t.Fatalf("route not restored to primary: %+v", e)
		}
	}
}
