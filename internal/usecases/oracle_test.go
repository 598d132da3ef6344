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
	"math/rand"
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

// frame builds the reaction's rcl body with its parameters bound, and
// the function that loads one recorded poll into them.
func (rec *recording) frame(t *testing.T) (*rcl.Frame, func(*poll)) {
	t.Helper()
	info := rec.info
	prog, err := rcl.NewProgram(info.Stmts)
	if err != nil {
		t.Fatalf("reaction %s: %v", info.Name, err)
	}
	fr := prog.NewFrame()
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
	return fr, func(p *poll) {
		for k, v := range p.fields {
			*scalars[k] = int64(v)
		}
		for k, v := range p.regs {
			for j, x := range v {
				arrays[k][j] = int64(x)
			}
		}
	}
}

// replay runs the reaction's rcl body over the recorded stream and fails
// t at the first poll whose decisions differ from the oracle's. It
// returns the number of decisions compared.
func (rec *recording) replay(t *testing.T, label string) int {
	t.Helper()
	fr, load := rec.frame(t)
	decisions := 0
	for i, p := range rec.polls {
		load(p)
		h := &replayHost{p: p}
		if err := fr.Exec(h); err != nil {
			t.Fatalf("%s %s poll %d at %v: %v", label, rec.info.Name, i, p.now, err)
		}
		if !slices.Equal(h.got, p.want) || h.clean != len(p.clean) {
			t.Fatalf("%s %s poll %d at %v (channel_clean asked %d, oracle %d):\n rcl    %q\n oracle %q",
				label, rec.info.Name, i, p.now, h.clean, len(p.clean), h.got, p.want)
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

// qConfig parameterizes qLearner.
type qConfig struct {
	// States and Actions size the Q table.
	States  int
	Actions int
	// Alpha is the learning rate, Gamma the discount factor.
	Alpha float64
	Gamma float64
	// Epsilon is the exploration probability; it decays by EpsilonDecay
	// (multiplicative) after each update, to a floor of MinEpsilon.
	Epsilon      float64
	EpsilonDecay float64
	MinEpsilon   float64
	Seed         int64
}

// defaultQConfig returns the hyperparameters rl_react hard-codes.
func defaultQConfig(states, actions int) qConfig {
	return qConfig{
		States: states, Actions: actions,
		Alpha: 0.2, Gamma: 0.9,
		Epsilon: 0.3, EpsilonDecay: 0.999, MinEpsilon: 0.02,
		Seed: 1,
	}
}

// draws is where a qLearner's exploration comes from.
type draws interface {
	Float64() float64
	Intn(n int) int
}

// qLearner is tabular off-policy Q-learning with an ε-greedy behaviour
// policy, the TD control algorithm (Sutton & Barto) of use case #4, in
// float64: the oracle rl_react's fixed-point body is held to.
type qLearner struct {
	cfg qConfig
	q   [][]float64
	rng draws
}

// newQLearner builds a learner with a zero-initialized Q table.
func newQLearner(cfg qConfig) (*qLearner, error) {
	if cfg.States <= 0 || cfg.Actions <= 0 {
		return nil, fmt.Errorf("rl: need positive state/action counts, got %d/%d", cfg.States, cfg.Actions)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("rl: alpha %v out of (0,1]", cfg.Alpha)
	}
	if cfg.Gamma < 0 || cfg.Gamma > 1 {
		return nil, fmt.Errorf("rl: gamma %v out of [0,1]", cfg.Gamma)
	}
	q := make([][]float64, cfg.States)
	for i := range q {
		q[i] = make([]float64, cfg.Actions)
	}
	return &qLearner{cfg: cfg, q: q, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Best returns the greedy action for a state (ties break toward the
// lowest index, deterministically).
func (l *qLearner) Best(state int) int {
	best, bestV := 0, l.q[state][0]
	for a := 1; a < l.cfg.Actions; a++ {
		if l.q[state][a] > bestV {
			best, bestV = a, l.q[state][a]
		}
	}
	return best
}

// Act picks an action ε-greedily.
func (l *qLearner) Act(state int) int {
	if l.rng.Float64() < l.cfg.Epsilon {
		return l.rng.Intn(l.cfg.Actions)
	}
	return l.Best(state)
}

// Update applies one TD(0) control update for the transition
// (s, a, r, s') and decays ε.
func (l *qLearner) Update(s, a int, r float64, s2 int) {
	maxNext := l.q[s2][l.Best(s2)]
	l.q[s][a] += l.cfg.Alpha * (r + l.cfg.Gamma*maxNext - l.q[s][a])
	if l.cfg.Epsilon > l.cfg.MinEpsilon {
		l.cfg.Epsilon *= l.cfg.EpsilonDecay
		if l.cfg.Epsilon < l.cfg.MinEpsilon {
			l.cfg.Epsilon = l.cfg.MinEpsilon
		}
	}
}

// rlOracle is use case #4's tuner in float64: the state is the polled
// depth's bucket, the reward the bottleneck's utilization (at most 1)
// minus β·state/8 with β = 1/2, and each poll updates the previous
// step's Q-value before it picks the next threshold.
type rlOracle struct {
	l       *qLearner
	linkBps float64

	lastTx    uint64
	lastTime  sim.Time
	lastState int
	lastAct   int
	primed    bool
}

// rlThresholds is the action space: candidate ECN thresholds.
var rlThresholds = []uint64{2, 4, 8, 16, 32, 64, 128}

func newRLOracle(linkBps float64) *rlOracle {
	l, err := newQLearner(defaultQConfig(8, len(rlThresholds)))
	if err != nil {
		panic(err)
	}
	return &rlOracle{l: l, linkBps: linkBps}
}

// qdepth buckets: 0, 1-2, 3-7, 8-15, 16-31, 32-63, 64-127, 128+
func depthState(q uint64) int {
	switch {
	case q == 0:
		return 0
	case q <= 2:
		return 1
	case q <= 7:
		return 2
	case q <= 15:
		return 3
	case q <= 31:
		return 4
	case q <= 63:
		return 5
	case q <= 127:
		return 6
	default:
		return 7
	}
}

// step is one poll. It returns the action taken, -1 for none, and
// whether it updated, with the update's reward.
func (o *rlOracle) step(now sim.Time, q, tx uint64) (act int, updated bool, reward float64) {
	state := depthState(q)
	if !o.primed {
		o.primed = true
		o.lastTx, o.lastTime, o.lastState = tx, now, state
		o.lastAct = o.l.Act(state)
		return o.lastAct, false, 0
	}
	elapsed := now.Sub(o.lastTime).Seconds()
	if elapsed <= 0 {
		return -1, false, 0
	}
	util := float64((tx-o.lastTx)*8) / elapsed / o.linkBps
	if util > 1 {
		util = 1
	}
	reward = util - 0.5*float64(state)/8.0
	o.l.Update(o.lastState, o.lastAct, reward, state)
	o.lastState, o.lastAct = state, o.l.Act(state)
	o.lastTx, o.lastTime = tx, now
	return o.lastAct, true, reward
}

// react is the oracle as a live reaction.
func (o *rlOracle) react(l *live) error {
	act, _, _ := o.step(l.Now(), l.Reg("q_sample")[0], l.Reg("tx_bytes")[0])
	if act < 0 {
		return nil
	}
	return l.SetMbl("ecn_thresh", rlThresholds[act])
}

// draw is one number an oracle drew: u from Float64, or k from Intn(n).
type draw struct {
	u    float64
	n, k int
}

// drawLog passes a seeded source's draws through and keeps them.
type drawLog struct {
	src  *rand.Rand
	kept []draw
}

func (d *drawLog) Float64() float64 {
	u := d.src.Float64()
	d.kept = append(d.kept, draw{u: u})
	return u
}

func (d *drawLog) Intn(n int) int {
	k := d.src.Intn(n)
	d.kept = append(d.kept, draw{n: n, k: k})
	return k
}

// rlHost replays RL's body: rand answers from the oracle's draws in
// order, a Float64 draw u as floor(u·n), and the threshold writes and
// update rewards are kept as numbers.
type rlHost struct {
	replayHost
	draws   []draw
	thresh  []int64
	rewards []int64
}

func (h *rlHost) WriteMbl(name string, v int64) error {
	h.thresh = append(h.thresh, v)
	return nil
}

func (h *rlHost) Call(name string, args []rcl.Arg) (int64, error) {
	switch name {
	case "rand":
		n := args[0].I
		if len(h.draws) == 0 {
			// The body explores where the oracle did not: any answer
			// will do, since that poll's ε draw lies at ε.
			return 0, nil
		}
		d := h.draws[0]
		h.draws = h.draws[1:]
		if d.n == 0 {
			return int64(d.u * float64(n)), nil
		}
		if int64(d.n) != n {
			return 0, fmt.Errorf("rand(%d) answered by the oracle's Intn(%d)", n, d.n)
		}
		return int64(d.k), nil
	case "emit":
		if args[0].S != usecases.EventRLUpdate {
			return 0, fmt.Errorf("unexpected event %q", args[0].S)
		}
		h.rewards = append(h.rewards, args[2].I)
		return 0, nil
	}
	return h.replayHost.Call(name, args)
}

// rlResolution is how far apart the body's fixed-point values (32
// fractional bits, truncated) and the oracle's float64 ones may drift
// over a run: every reward must agree to within it, and the body may
// pick another threshold than the oracle only on a poll where the
// oracle's ε draw and ε, or the top two Q-values of the greedy state,
// lie within it.
const rlResolution = 1.0 / (1 << 20)

// replayRL runs RL's body over the recorded stream beside a fresh float
// oracle stepped on the same polls with the live oracle's seed, whose
// draws answer the body's rand. Until the two first part at a near-tie,
// the replayed oracle must decide as the live one did; at a near-tie it
// takes the body's action, so both go on learning the same transitions.
// It returns the number of polls compared and of near-tie departures.
func (rec *recording) replayRL(t *testing.T, linkBps float64) (polls, ties int) {
	t.Helper()
	fr, load := rec.frame(t)
	o := newRLOracle(linkBps)
	log := &drawLog{src: rand.New(rand.NewSource(o.l.cfg.Seed))}
	o.l.rng = log
	for i, p := range rec.polls {
		log.kept = log.kept[:0]
		act, updated, reward := o.step(p.now, p.regs["q_sample"][0], p.regs["tx_bytes"][0])
		eps := o.l.cfg.Epsilon // as the step's Act saw it
		var want []int64
		if act >= 0 {
			want = []int64{int64(rlThresholds[act])}
			if ties == 0 && !slices.Equal(p.want, []string{fmt.Sprintf("${ecn_thresh} = %d", want[0])}) {
				t.Fatalf("poll %d: the replayed oracle sets %d, the live one %q", i, want[0], p.want)
			}
		}
		load(p)
		h := &rlHost{replayHost: replayHost{p: p}, draws: slices.Clone(log.kept)}
		if err := fr.Exec(h); err != nil {
			t.Fatalf("poll %d at %v: %v", i, p.now, err)
		}
		if updated != (len(h.rewards) == 1) || len(h.rewards) > 1 {
			t.Fatalf("poll %d: oracle updated %v, body emitted %d updates", i, updated, len(h.rewards))
		}
		if updated {
			if got := float64(h.rewards[0]) / (1 << 32); math.Abs(got-reward) > rlResolution {
				t.Fatalf("poll %d: reward %v, oracle %v", i, got, reward)
			}
		}
		if len(want) == 0 && len(h.thresh) == 0 {
			continue
		}
		polls++
		if slices.Equal(h.thresh, want) {
			continue
		}
		if len(want) == 0 || len(h.thresh) != 1 {
			t.Fatalf("poll %d: body sets %v, oracle %v", i, h.thresh, want)
		}
		// A departure is allowed only at a near-tie.
		state := depthState(p.regs["q_sample"][0])
		row := slices.Clone(o.l.q[state])
		slices.Sort(row)
		near := math.Abs(log.kept[0].u-eps) < rlResolution ||
			(log.kept[0].u >= eps && row[len(row)-1]-row[len(row)-2] < rlResolution)
		if !near {
			t.Fatalf("poll %d at %v: body sets %d, oracle %d (ε draw %v of %v, Q row %v)",
				i, p.now, h.thresh[0], want[0], log.kept[0].u, eps, o.l.q[state])
		}
		ties++
		o.lastAct = slices.Index(rlThresholds, uint64(h.thresh[0]))
	}
	return polls, ties
}

func TestQLearnerNewValidation(t *testing.T) {
	if _, err := newQLearner(qConfig{States: 0, Actions: 2, Alpha: 0.1}); err == nil {
		t.Fatal("zero states accepted")
	}
	if _, err := newQLearner(qConfig{States: 2, Actions: 2, Alpha: 0}); err == nil {
		t.Fatal("zero alpha accepted")
	}
	if _, err := newQLearner(qConfig{States: 2, Actions: 2, Alpha: 0.5, Gamma: 1.5}); err == nil {
		t.Fatal("gamma > 1 accepted")
	}
	if _, err := newQLearner(defaultQConfig(4, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestQLearnerUpdateMovesTowardTarget(t *testing.T) {
	l, _ := newQLearner(qConfig{States: 2, Actions: 2, Alpha: 0.5, Gamma: 0, Seed: 1})
	l.Update(0, 1, 10, 1)
	if l.q[0][1] != 5 { // 0 + 0.5*(10 - 0)
		t.Fatalf("Q(0,1) = %v", l.q[0][1])
	}
	l.Update(0, 1, 10, 1)
	if l.q[0][1] != 7.5 {
		t.Fatalf("Q(0,1) = %v", l.q[0][1])
	}
}

func TestQLearnerBestAndGreedy(t *testing.T) {
	l, _ := newQLearner(qConfig{States: 1, Actions: 3, Alpha: 1, Gamma: 0, Epsilon: 0, Seed: 1})
	l.Update(0, 2, 5, 0)
	if l.Best(0) != 2 {
		t.Fatalf("Best = %d", l.Best(0))
	}
	if l.Act(0) != 2 {
		t.Fatal("greedy Act ignored best action")
	}
}

func TestQLearnerEpsilonDecay(t *testing.T) {
	cfg := defaultQConfig(2, 2)
	cfg.Epsilon = 1.0
	cfg.EpsilonDecay = 0.5
	cfg.MinEpsilon = 0.1
	l, _ := newQLearner(cfg)
	for i := 0; i < 10; i++ {
		l.Update(0, 0, 0, 0)
	}
	if l.cfg.Epsilon != 0.1 {
		t.Fatalf("epsilon = %v, want floor 0.1", l.cfg.Epsilon)
	}
}

func TestQLearnerExplorationHappens(t *testing.T) {
	cfg := defaultQConfig(1, 4)
	cfg.Epsilon = 1.0
	cfg.EpsilonDecay = 1.0
	l, _ := newQLearner(cfg)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[l.Act(0)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("pure exploration visited %d/4 actions", len(seen))
	}
}

// TestQLearnerLearnsSimpleMDP: a 1-state bandit where action 1 pays 1 and
// action 0 pays 0 — the learner must converge to action 1.
func TestQLearnerLearnsSimpleMDP(t *testing.T) {
	cfg := defaultQConfig(1, 2)
	l, _ := newQLearner(cfg)
	for i := 0; i < 500; i++ {
		a := l.Act(0)
		r := 0.0
		if a == 1 {
			r = 1
		}
		l.Update(0, a, r, 0)
	}
	if l.Best(0) != 1 {
		t.Fatalf("did not learn the bandit: Q = [%v %v]", l.q[0][0], l.q[0][1])
	}
}

// TestQLearnerLearnsChainMDP: states 0..4; action 1 moves right (reward 1 at
// the end), action 0 stays. Discounted lookahead must propagate value
// back so the learner walks right from state 0.
func TestQLearnerLearnsChainMDP(t *testing.T) {
	cfg := defaultQConfig(5, 2)
	cfg.Epsilon = 0.3
	l, _ := newQLearner(cfg)
	rng := rand.New(rand.NewSource(2))
	s := 0
	for i := 0; i < 20000; i++ {
		a := l.Act(s)
		s2, r := s, 0.0
		if a == 1 {
			s2 = s + 1
			if s2 == 4 {
				r = 1
				s2 = 0 // episode restarts
			}
		}
		l.Update(s, a, r, s2)
		s = s2
		if rng.Float64() < 0.01 {
			s = rng.Intn(4)
		}
	}
	for st := 0; st < 4; st++ {
		if l.Best(st) != 1 {
			t.Fatalf("state %d: best = %d, want move-right", st, l.Best(st))
		}
	}
}

func TestQLearnerDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		l, _ := newQLearner(defaultQConfig(3, 3))
		var out []int
		for i := 0; i < 100; i++ {
			a := l.Act(i % 3)
			out = append(out, a)
			l.Update(i%3, a, float64(i%5), (i+1)%3)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic trajectory")
		}
	}
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
// poll: Fig. 15, every Fig. 16 sweep point and trial, RunPolar, RunRL
// (up to near-ties, see rlResolution), the DoS fabric's leaves (both
// reactions) and the reroute fabric's gray leaves, at the sizes, modes
// and seeds the experiments run.
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
	t.Run("rl", func(t *testing.T) {
		// RunRL's streams: the test's seed and the example's.
		for _, seed := range []int64{1, 5} {
			rig, err := usecases.BuildRL(seed, 50*time.Microsecond, 1e9)
			if err != nil {
				t.Fatal(err)
			}
			rec := record(t, rig.Agent, rig.Plan, "rl_react", nil, newRLOracle(1e9).react)
			if _, err := rig.RunRL(50 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			polls, ties := rec.replayRL(t, 1e9)
			if polls < 900 {
				t.Fatalf("seed %d: the stream holds only %d decisions", seed, polls)
			}
			t.Logf("seed %d: %d polls, %d near-tie departures", seed, polls, ties)
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
