// Command mantisd runs a Mantis agent against a simulated switch
// loaded with a compiled .p4r program, drives synthetic traffic through
// it, and reports dialogue-loop statistics — a miniature of deploying
// the Mantis agent on a switch CPU. The report is a set of tables: one
// per stats struct of each layer it ran, plus the run's own facts.
//
// Usage:
//
//	mantisd [-duration 10ms] [-pacing 0] [-pps 100000] [-faults transient] [-legacy-clients 4] program.p4r
//	mantisd -ctl-loss 0.01 -ctl-partition 700us/300us -ctl-delay 500ns program.p4r
//
// With -topology the single switch becomes a leaf–spine fabric running
// the built-in fabric programs and the network-wide DoS reference
// scenario (no program argument):
//
//	mantisd -topology leafspine:4,2 [-duration 10ms] [-ctl-loss 0.01]
//
// Fabric failures can be injected mid-run (the failure lands at 1/3 of
// -duration and heals at 2/3), exercising the per-leaf gray detectors
// and the coordinator's ECMP-exclude reroutes:
//
//	mantisd -topology leafspine:4,2 -fail-spine 1
//	mantisd -topology leafspine:4,2 -gray-trunk 0,1:0.3
//
// A usage error exits 2, a failed run 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/compiler/place"
	"repro/internal/core"
	"repro/internal/ctlchan"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/report"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// usageError is a bad invocation: run exits 2 for it, 1 for any other
// error.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// config is the parsed command line.
type config struct {
	duration, pacing, ctlDelay, interval time.Duration
	pps, ctlLoss                         float64
	seed, faultSeed                      int64
	legacyClients, failSpine             int
	faults, sched, ctlPartition          string
	topology, target, grayTrunk          string
	ctlProf                              faults.LinkProfile
}

// run is the command: it parses args, runs one switch or a fabric, and
// writes the report to stdout. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mantisd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.DurationVar(&c.duration, "duration", 10*time.Millisecond, "virtual run time")
	fs.DurationVar(&c.pacing, "pacing", 0, "dialogue pacing (0 = busy loop)")
	fs.Float64Var(&c.pps, "pps", 100000, "synthetic traffic rate (packets/second)")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.StringVar(&c.faults, "faults", "", "inject driver-channel faults: none|transient|latency|partial-batch|stuck, or crash the primary with crash-prepare|crash-commit|crash-mirror (enables journaled failover to a standby)")
	fs.Int64Var(&c.faultSeed, "fault-seed", 1, "fault injector seed (independent of -seed)")
	fs.IntVar(&c.legacyClients, "legacy-clients", 0, "concurrent legacy control-plane clients churning a table through bulk sessions")
	fs.StringVar(&c.sched, "sched", "priority", "control-plane scheduling policy: priority|fifo")
	fs.DurationVar(&c.ctlDelay, "ctl-delay", 0, "run the dialogue over a message-based control channel with this one-way link delay (0 = in-process calls unless another -ctl-* flag is set, then 500ns)")
	fs.Float64Var(&c.ctlLoss, "ctl-loss", 0, "control-channel frame loss probability per direction (implies the message channel)")
	fs.StringVar(&c.ctlPartition, "ctl-partition", "", "periodic control-channel partitions, EVERY/FOR (e.g. 700us/300us; implies the message channel)")
	fs.StringVar(&c.topology, "topology", "", "run a multi-switch fabric instead of one switch: leafspine:L,S (uses built-in programs; no program argument)")
	fs.StringVar(&c.target, "target", place.DefaultTarget, "switch profile the program must place under: a built-in name, a .json profile file, or \"none\" to assign stages without budgets")
	fs.IntVar(&c.failSpine, "fail-spine", -1, "with -topology: crash this spine (all trunks down, control endpoints dead, agent halted) at duration/3, restore at 2·duration/3")
	fs.StringVar(&c.grayTrunk, "gray-trunk", "", "with -topology: silently degrade one leaf↔spine trunk, L,S[:RATE] (e.g. 0,1:0.3), over the same fail/heal window")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	tables, err := daemon(&c, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "mantisd: %v\n", err)
		if errors.As(err, &usageError{}) {
			return 2
		}
		return 1
	}
	fmt.Fprint(stdout, report.Text(tables))
	return 0
}

// daemon checks the flags that do not depend on the mode, then runs the
// mode they select.
func daemon(c *config, args []string) ([]report.Table, error) {
	var err error
	if c.ctlProf, err = ctlLinkProfile(c.ctlLoss, c.ctlPartition); err != nil {
		return nil, usageError{err}
	}
	if c.interval, err = trafficInterval(c.duration, c.pps); err != nil {
		return nil, usageError{err}
	}
	switch {
	case c.pacing < 0:
		return nil, usagef("-pacing %v: must not be negative", c.pacing)
	case c.ctlDelay < 0:
		return nil, usagef("-ctl-delay %v: must not be negative", c.ctlDelay)
	case c.legacyClients < 0:
		return nil, usagef("-legacy-clients %d: must not be negative", c.legacyClients)
	case c.failSpine < -1:
		return nil, usagef("-fail-spine %d: want a spine index, or -1 for none", c.failSpine)
	}
	if c.topology != "" {
		if len(args) != 0 {
			return nil, usagef("-topology uses the built-in fabric programs; no program argument")
		}
		if c.faults != "" || c.legacyClients > 0 {
			return nil, usagef("-topology cannot be combined with -faults or -legacy-clients")
		}
		return runTopology(c)
	}
	if c.failSpine >= 0 || c.grayTrunk != "" {
		return nil, usagef("-fail-spine and -gray-trunk require -topology")
	}
	if len(args) != 1 {
		return nil, usagef("usage: mantisd [flags] program.p4r")
	}
	return runSwitch(c, args[0])
}

// ctlLinkProfile assembles the message-channel fault profile from the
// -ctl-* flags. The -ctl-partition value is EVERY/FOR, two durations:
// the link partitions for FOR every EVERY (e.g. 700us/300us).
func ctlLinkProfile(loss float64, partition string) (faults.LinkProfile, error) {
	prof := faults.LinkProfile{Name: "ctl", Loss: loss}
	if !(loss >= 0 && loss < 1) {
		return prof, fmt.Errorf("-ctl-loss %g: want a probability in [0,1)", loss)
	}
	if partition != "" {
		parts := strings.SplitN(partition, "/", 2)
		if len(parts) != 2 {
			return prof, fmt.Errorf("-ctl-partition %q: want EVERY/FOR (e.g. 700us/300us)", partition)
		}
		every, err := time.ParseDuration(parts[0])
		if err != nil {
			return prof, fmt.Errorf("-ctl-partition: %v", err)
		}
		for_, err := time.ParseDuration(parts[1])
		if err != nil {
			return prof, fmt.Errorf("-ctl-partition: %v", err)
		}
		if every <= 0 || for_ <= 0 {
			return prof, fmt.Errorf("-ctl-partition %q: durations must be positive", partition)
		}
		prof.PartitionEvery, prof.PartitionFor = every, for_
	}
	return prof, nil
}

// trafficInterval checks -duration and turns -pps into the period of the
// synthetic-traffic ticker (-pps 0 = no traffic).
func trafficInterval(duration time.Duration, pps float64) (time.Duration, error) {
	if duration <= 0 {
		return 0, fmt.Errorf("-duration %v: must be positive", duration)
	}
	if pps == 0 {
		return 0, nil
	}
	if !(pps > 0) {
		return 0, fmt.Errorf("-pps %g: want a rate ≥ 0", pps)
	}
	interval := time.Duration(float64(time.Second) / pps)
	if interval <= 0 {
		return 0, fmt.Errorf("-pps %g: the packet interval rounds to under 1ns (want at most 1e9)", pps)
	}
	return interval, nil
}

// legacyChurnTarget picks a table for legacy bulk clients to churn: the
// first (alphabetically) non-malleable table that is not part of the
// compiler-generated init/loader machinery. Falls back to register
// reads when the program has no such table.
func legacyChurnTarget(plan *compiler.Plan) (table, action string, nKeys, nParams int, ok bool) {
	reserved := map[string]bool{}
	for _, it := range plan.InitTables {
		reserved[it.Table] = true
	}
	for _, se := range plan.StaticEntries {
		reserved[se.Table] = true
	}
	var names []string
	for name, tbl := range plan.Prog.Tables {
		if !tbl.Malleable && !reserved[name] && len(tbl.ActionNames) > 0 && len(tbl.Keys) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "", "", 0, 0, false
	}
	sort.Strings(names)
	tbl := plan.Prog.Tables[names[0]]
	act := plan.Prog.Actions[tbl.ActionNames[0]]
	return tbl.Name, act.Name, len(tbl.Keys), len(act.Params), true
}

// legacyReadTarget picks a register for read-only churn fallback.
func legacyReadTarget(prog *p4.Program) (reg string, n uint64, ok bool) {
	var names []string
	for name := range prog.Registers {
		names = append(names, name)
	}
	if len(names) == 0 {
		return "", 0, false
	}
	sort.Strings(names)
	return names[0], min(uint64(prog.Registers[names[0]].Instances), 16), true
}

// parseGrayTrunk parses -gray-trunk's L,S[:RATE] form. Every part must
// parse in full, and RATE must be a number in (0,1].
func parseGrayTrunk(spec string) (leaf, spine int, rate float64, err error) {
	rate = 0.3
	lhs, rhs, hasRate := strings.Cut(spec, ":")
	if hasRate {
		if rate, err = strconv.ParseFloat(rhs, 64); err != nil || !(rate > 0 && rate <= 1) {
			return 0, 0, 0, fmt.Errorf("-gray-trunk %q: rate must be in (0,1]", spec)
		}
	}
	l, sp, ok := strings.Cut(lhs, ",")
	leaf, errL := strconv.Atoi(l)
	spine, errS := strconv.Atoi(sp)
	if !ok || errL != nil || errS != nil {
		return 0, 0, 0, fmt.Errorf("-gray-trunk %q: want L,S[:RATE] (e.g. 0,1:0.3)", spec)
	}
	return leaf, spine, rate, nil
}

// runTopology is the -topology mode: a leaf–spine fabric of switches,
// each with its own agent over a lossy control channel, running the
// network-wide DoS scenario end to end. -fail-spine crashes that spine
// at duration/3 and restores it at 2·duration/3; -gray-trunk silently
// degrades one leaf↔spine trunk over the same window instead.
func runTopology(c *config) ([]report.Table, error) {
	var leaves, spines int
	if _, err := fmt.Sscanf(c.topology, "leafspine:%d,%d", &leaves, &spines); err != nil || leaves < 1 || spines < 1 {
		return nil, usagef("-topology %q: want leafspine:L,S with L,S ≥ 1", c.topology)
	}
	if c.failSpine >= spines {
		return nil, usagef("-fail-spine %d: fabric has spines 0..%d", c.failSpine, spines-1)
	}
	var gl, gs int
	var rate float64
	if c.grayTrunk != "" {
		var err error
		if gl, gs, rate, err = parseGrayTrunk(c.grayTrunk); err != nil {
			return nil, usageError{err}
		}
		if gl < 0 || gl >= leaves || gs < 0 || gs >= spines {
			return nil, usagef("-gray-trunk %d,%d: fabric is %d×%d", gl, gs, leaves, spines)
		}
	}

	cfg := fabric.DosFabricConfig{Fabric: fabric.Config{
		Leaves: leaves, Spines: spines, Seed: c.seed,
		Pacing: c.pacing, CtlDelay: c.ctlDelay, CtlProfile: c.ctlProf,
		Target: c.target,
	}}
	if c.ctlProf.Loss > 0 || c.ctlProf.PartitionEvery > 0 {
		// Sustained channel faults need a longer per-op budget; see
		// fabric.Config.CtlOpDeadline.
		cfg.Fabric.CtlOpDeadline = 2 * time.Millisecond
	}
	s := sim.New(c.seed)
	d, err := fabric.NewDosFabric(s, cfg)
	if err != nil {
		return nil, err
	}
	// Failure injection: land at 1/3 of the run, heal at 2/3, so the
	// report shows detection, reroute, and restore all inside -duration.
	failAt, healAt := c.duration/3, 2*c.duration/3
	var injectErr error
	if c.failSpine >= 0 {
		name := d.F.Spines[c.failSpine].Name
		s.Schedule(failAt, func() { injectErr = errors.Join(injectErr, d.F.Crash(name)) })
		s.Schedule(healAt, func() { injectErr = errors.Join(injectErr, d.F.Restore(name)) })
	}
	if c.grayTrunk != "" {
		tr := d.F.Trunks[gl][gs]
		s.Schedule(failAt, func() { tr.SetGray(rate) })
		s.Schedule(healAt, func() { tr.SetGray(0) })
	}

	const warmup = 2 * time.Millisecond
	if err := errors.Join(d.Run(warmup, max(c.duration-warmup, time.Millisecond)), injectErr); err != nil {
		return nil, err
	}

	tables := []report.Table{{Title: "mantisd: leaf-spine fabric", Columns: []string{"run", "value"}, Rows: [][]string{
		{"topology", fmt.Sprintf("leaf-spine %d×%d (%d switches), victim on leaf0, flood at spine0's border port", leaves, spines, leaves+spines)},
		{"virtual time", s.Now().String()},
	}}}
	var names []string
	var agents []core.Stats
	var agentChs, coordChs []ctlchan.ClientStats
	for _, n := range d.F.Nodes() {
		names = append(names, n.Name)
		agents = append(agents, n.Agent.Stats())
		agentChs = append(agentChs, n.AgentCli.ChanStats())
		coordChs = append(coordChs, n.CoordCli.ChanStats())
	}
	var trunkNames []string
	var ups, downs []netsim.TrunkStats
	for l, row := range d.F.Trunks {
		for sp, tr := range row {
			trunkNames = append(trunkNames, fmt.Sprintf("leaf%d↔spine%d", l, sp))
			ups, downs = append(ups, tr.Stats(0)), append(downs, tr.Stats(1))
		}
	}
	cst := d.F.Coord.Stats()
	tables = append(tables,
		report.Stats("agents", names, agents),
		report.Stats("agent channels", names, agentChs),
		report.Stats("coordinator channels", names, coordChs),
		report.Stats("trunks leaf→spine", trunkNames, ups),
		report.Stats("trunks spine→leaf", trunkNames, downs),
		report.Stats("coordinator", []string{"coordinator"}, []fabric.CoordinatorStats{cst}))

	if cst.GraySuspects+cst.GrayClears > 0 {
		health := report.Table{Title: "spine health", Columns: []string{"spine", "state", "suspected by"}}
		for sp := range d.F.Spines {
			h := d.F.Coord.Health(sp)
			var suspects []string
			for name := range h.Suspects {
				suspects = append(suspects, name)
			}
			sort.Strings(suspects)
			health.Rows = append(health.Rows, report.Row(fmt.Sprintf("spine%d", sp), h.State, strings.Join(suspects, ", ")))
		}
		reroutes := report.Table{Title: "reroutes", Columns: []string{"at", "verb", "spine", "evidence", "moves", "committed after"}}
		for _, rr := range d.F.Coord.Reroutes() {
			verb, done := "exclude", "pending"
			if !rr.Exclude {
				verb = "restore"
			}
			if rr.DoneAt != 0 {
				done = rr.DoneAt.Sub(rr.At).String()
			}
			reroutes.Rows = append(reroutes.Rows, report.Row(rr.At, verb, fmt.Sprintf("spine%d", rr.Spine), rr.Leaf, rr.Moves, done))
		}
		tables = append(tables, health, reroutes)
	}

	esc := report.Table{Title: "escalation", Columns: []string{"step", "value"}}
	if e := d.Escalation(); e != nil {
		esc.Rows = [][]string{
			{"detected by", e.DetectedBy},
			{"detected after flood start", e.DetectedAt.Sub(d.FloodStart).String()},
			{"spines filtered after detection", e.SpinesDoneAt.Sub(e.DetectedAt).String()},
			{fmt.Sprintf("all %d switches filtered after detection", len(e.Installed)), e.AllDoneAt.Sub(e.DetectedAt).String()},
		}
		if sup, err := d.Suppression(s.Now()); err == nil {
			esc.Rows = append(esc.Rows, []string{"attack traffic removed from the victim leaf's trunks", fmt.Sprintf("%.1f%%", sup*100)})
		}
	} else {
		esc.Notes = []string{"none: the flood was never detected within -duration"}
	}
	hh := report.Table{Title: fmt.Sprintf("heavy hitters: top 5 of %d tracked senders", len(d.DeliveredBySrc)),
		Columns: []string{"src", "est bytes", "delivered bytes"}}
	for _, e := range d.F.Coord.TopK(5) {
		hh.Rows = append(hh.Rows, report.Row(fmt.Sprintf("%#x", e.Src), e.Bytes, d.DeliveredBySrc[e.Src]))
	}
	return append(tables, esc, hh), nil
}

// runSwitch is the single-switch mode: the program at path on one
// switch, its agent over the selected control path, synthetic traffic,
// and optionally faults, a standby, and legacy clients.
func runSwitch(c *config, path string) ([]report.Table, error) {
	var prof faults.Profile
	var profiles []string
	for _, p := range faults.Profiles() {
		profiles = append(profiles, p.Name)
		if p.Name == c.faults {
			prof = p
		}
	}
	if c.faults != "" && prof.Name == "" {
		return nil, usagef("unknown fault profile %q (want %s)", c.faults, strings.Join(profiles, "|"))
	}
	crash := prof.CrashEnabled()
	policy := ctlplane.PolicyPriority
	if c.sched == "fifo" {
		policy = ctlplane.PolicyFIFO
	} else if c.sched != "priority" {
		return nil, usagef("unknown scheduling policy %q (want priority|fifo)", c.sched)
	}
	ctlEnabled := c.ctlDelay > 0 || c.ctlLoss > 0 || c.ctlPartition != ""
	if ctlEnabled && crash {
		return nil, usagef("-ctl-* flags cannot be combined with crash fault profiles (the standby takes over through the control-plane service, not the message channel)")
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	copts := compiler.DefaultOptions()
	copts.Target = c.target
	plan, err := compiler.CompileSource(string(src), copts)
	if err != nil {
		return nil, err
	}

	s := sim.New(c.seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	ch := driver.Channel(drv)
	var inj *faults.Injector
	opts := core.Options{Pacing: c.pacing}
	if c.faults != "" && !crash {
		// In-process fault classes wrap the shared channel below the
		// control-plane service; the agent's recovery loop survives them.
		inj = faults.Wrap(s, drv, prof, c.faultSeed)
		ch = inj
		// Let the prologue install cleanly; faults start shortly after.
		inj.SetEnabled(false)
		s.Schedule(50*sim.Microsecond, func() { inj.SetEnabled(true) })
	}
	// The control-plane service sits above the (possibly fault-injected)
	// channel: the agent holds the primary session, legacy clients get
	// bulk sessions, and dialogue ops are scheduled ahead of bulk churn.
	svc := ctlplane.New(s, ch, ctlplane.Options{Policy: policy})
	var agent *core.Agent
	var sb *core.Standby
	var ctlLink *netsim.Link
	var ctlSrv *ctlchan.Server
	var ctlCli *ctlchan.Client
	var sess *ctlplane.Session
	if crash || ctlEnabled {
		if sess, err = svc.Open(ctlplane.SessionOptions{Name: "mantis-agent", Role: ctlplane.RolePrimary, ElectionID: 1}); err != nil {
			return nil, err
		}
	}
	if crash {
		// A crash profile kills the agent process outright, so the wiring
		// is the failover stack: the injector wraps the primary's own
		// session (the shared service must survive the crash), the
		// agent write-ahead journals every iteration, and a hot standby
		// watches the journal heartbeat, ready to elect itself primary
		// and reconcile the switch.
		inj = faults.Wrap(s, sess, prof, c.faultSeed)
		store := journal.NewMemStore()
		opts.Journal = &core.JournalConfig{Store: store}
		agent = core.NewAgent(s, inj, plan, opts)
		inj.SetEnabled(false)
		s.Schedule(50*sim.Microsecond, func() { inj.SetEnabled(true) })
		sb = core.NewStandby(s, svc, core.StandbyOptions{
			Name:       "standby",
			ElectionID: 2,
			Store:      store,
			Plan:       plan,
			Agent:      core.Options{Pacing: c.pacing},
		})
	} else if ctlEnabled {
		// Message-channel mode: the agent's session is reached over a
		// simulated lossy link — request/response frames with sequence
		// numbers and retransmission, fenced by the session's election —
		// instead of in-process calls. The link starts clean so the
		// prologue installs reliably; the configured faults arm at 50µs.
		delay := c.ctlDelay
		if delay <= 0 {
			delay = 500 * time.Nanosecond
		}
		ctlLink = netsim.NewLink(s, delay, faults.LinkNone(), c.seed)
		ctlSrv = ctlchan.NewServer(s)
		ctlSrv.Attach(ctlLink, netsim.LinkSideB, 1, 1, sess)
		ctlCli = ctlchan.NewClient(s, ctlLink, netsim.LinkSideA, ctlchan.ClientOptions{
			Session: 1, Epoch: 1, Meta: drv,
		})
		s.Schedule(50*sim.Microsecond, func() { ctlLink.SetProfile(c.ctlProf) })
		opts.Journal = &core.JournalConfig{Store: journal.NewMemStore()}
		agent = core.NewAgent(s, ctlCli, plan, opts)
	} else if agent, _, err = core.NewSessionAgent(s, svc, 1, plan, opts); err != nil {
		return nil, err
	}
	agent.Start()

	// Legacy clients churn a non-Mantis table (or fall back to register
	// reads) through their own bulk sessions, best-effort under faults.
	legacyErrs := 0
	if c.legacyClients > 0 {
		table, action, nKeys, nParams, haveTable := legacyChurnTarget(plan)
		reg, regN, haveReg := legacyReadTarget(plan.Prog)
		if !haveTable && !haveReg {
			return nil, usagef("-legacy-clients: program has no non-Mantis table or register to churn")
		}
		for i := 0; i < c.legacyClients; i++ {
			sess, err := svc.Open(ctlplane.SessionOptions{
				Name: fmt.Sprintf("legacy%d", i), Role: ctlplane.RoleLegacy,
			})
			if err != nil {
				return nil, err
			}
			s.Spawn(sess.Name(), func(p *sim.Proc) {
				rng := s.Rand()
				var h rmt.EntryHandle
				if haveTable {
					keys := make([]rmt.KeySpec, nKeys)
					for k := range keys {
						keys[k] = rmt.ExactKey(uint64(i + 1))
					}
					var err error
					if h, err = sess.AddEntry(p, table, rmt.Entry{
						Keys: keys, Action: action, Data: make([]uint64, nParams),
					}); err != nil {
						legacyErrs++
						return
					}
				}
				for n := 0; ; n++ {
					p.Sleep(time.Duration(rng.Intn(5000)) * time.Nanosecond)
					var err error
					if haveTable {
						data := make([]uint64, nParams)
						for j := range data {
							data[j] = uint64(n)
						}
						err = sess.ModifyEntry(p, table, h, action, data)
					} else {
						_, err = sess.BatchRead(p, []driver.ReadReq{{Reg: reg, Lo: 0, Hi: regN}})
					}
					if err != nil {
						legacyErrs++
					}
				}
			})
		}
	}

	// Synthetic traffic: random field values at the requested rate.
	if c.interval > 0 {
		rng := s.Rand()
		names := plan.Prog.Schema.Names()
		s.Every(c.interval, func() {
			pkt := plan.Prog.Schema.New()
			pkt.Size = 64 + rng.Intn(1400)
			for _, n := range names {
				if len(n) > 5 && (n[:5] == "ipv4." || n[:4] == "tcp." || n[:4] == "hdr.") {
					pkt.SetName(n, uint64(rng.Int63()))
				}
			}
			sw.Inject(rng.Intn(sw.Config().NumPorts), pkt)
		})
	}

	s.RunFor(c.duration)
	agent.Stop()
	if sb != nil {
		sb.Stop()
		if succ := sb.Agent(); succ != nil {
			succ.Stop()
		}
	}
	s.RunFor(time.Millisecond)
	if err := agent.Err(); err != nil {
		return nil, fmt.Errorf("agent: %v", err)
	}

	var reactions []string
	for _, rxn := range plan.Reactions {
		reactions = append(reactions, rxn.Name)
	}
	summary := report.Table{Title: "mantisd: one switch", Columns: []string{"run", "value"}, Rows: [][]string{
		{"placement", fmt.Sprintf("profile %s, %d ingress + %d egress stages, fits",
			plan.Placement.Profile.Name, plan.Placement.IngressStages, plan.Placement.EgressStages)},
		{"reactions", strings.Join(reactions, ", ")},
		{"ctlplane policy", policy.String()},
		{"virtual time", s.Now().String()},
	}}
	if c.legacyClients > 0 {
		summary.Rows = append(summary.Rows, report.Row("failed legacy operations", legacyErrs))
	}
	// ran is how many iterations each agent ran itself: a successor's
	// counter resumes from the journal's.
	agentNames, agents, ran := []string{"agent"}, []core.Stats{agent.Stats()}, []uint64{agent.Stats().Iterations}
	var takeover []report.Table
	if sb != nil {
		if err := sb.Err(); err != nil {
			return nil, fmt.Errorf("standby: %v", err)
		}
		tk := report.Table{Title: "takeover", Columns: []string{"step", "value"}}
		if !sb.TookOver() {
			tk.Rows = [][]string{{"outcome", "none"}}
			tk.Notes = []string{"the crash never fired within -duration, or the primary is still healthy"}
			takeover = append(takeover, tk)
		} else {
			rep, succ := sb.Report(), sb.Agent()
			if err := succ.Err(); err != nil {
				return nil, fmt.Errorf("successor: %v", err)
			}
			crashAt := inj.CrashedAt()
			st := succ.Stats()
			agentNames, agents, ran = append(agentNames, "successor"), append(agents, st), append(ran, st.Iterations-rep.Recover.Iteration)
			tk.Rows = [][]string{
				report.Row("crash", crashAt),
				report.Row("MTTR", rep.ResumedAt.Sub(crashAt)),
				report.Row("detect", rep.DetectedAt.Sub(crashAt)),
				report.Row("resume after recovery", rep.ResumedAt.Sub(rep.RecoveredAt)),
			}
			takeover = append(takeover, tk, report.Stats("recovery", []string{"successor"}, []core.RecoverReport{*rep.Recover}))
		}
	}
	lat := report.Table{Title: "iteration latency", Columns: append([]string{"agent"}, report.DurColumns...)}
	for i, st := range agents {
		lat.Rows = append(lat.Rows, report.DurRow(agentNames[i], stats.SummarizeDurations(st.Latencies)))
		if n := uint64(len(st.Latencies)); n < ran[i] {
			lat.Notes = append(lat.Notes, fmt.Sprintf("%s: first %d of %d iterations", agentNames[i], n, ran[i]))
		}
	}
	var sessNames, roles []string
	var sessions []ctlplane.SessionStats
	for _, sess := range svc.Sessions() {
		sessNames = append(sessNames, sess.Name())
		roles = append(roles, fmt.Sprintf("%s %s/%s", sess.Name(), sess.Role(), sess.Class()))
		sessions = append(sessions, sess.SessionStats())
	}
	sessTable := report.Stats("sessions", sessNames, sessions)
	sessTable.Notes = []string{"roles: " + strings.Join(roles, ", ")}
	tables := []report.Table{summary,
		report.Stats("agent", agentNames, agents), lat,
		report.Stats("switch", []string{"switch"}, []rmt.Stats{sw.Stats()}),
		report.Stats("driver", []string{"driver"}, []driver.Stats{drv.Stats()}),
		report.Stats("ctlplane", []string{"service"}, []ctlplane.Stats{svc.Stats()}),
		sessTable,
	}
	if inj != nil {
		tables = append(tables, report.Stats("faults", []string{inj.Profile().Name}, []faults.Stats{inj.FaultStats()}))
	}
	if ctlCli != nil {
		cli := report.Stats("ctl client", []string{"client"}, []ctlchan.ClientStats{ctlCli.ChanStats()})
		cli.Notes = []string{fmt.Sprintf("rtt %v", ctlCli.RTT())}
		tables = append(tables, cli,
			report.Stats("ctl server", []string{"server"}, []ctlchan.ServerStats{ctlSrv.Stats()}),
			report.Stats("ctl link", []string{"link"}, []netsim.LinkStats{ctlLink.Stats()}))
	}
	return append(tables, takeover...), nil
}
