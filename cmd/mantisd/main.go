// Command mantisd runs a Mantis agent against a simulated switch
// loaded with a compiled .p4r program, drives synthetic traffic through
// it, and reports dialogue-loop statistics — a miniature of deploying
// the Mantis agent on a switch CPU.
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
package main

import (
	"flag"
	"fmt"
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
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

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
// synthetic-traffic ticker (0 = no traffic).
func trafficInterval(duration time.Duration, pps float64) (time.Duration, error) {
	if duration <= 0 {
		return 0, fmt.Errorf("-duration %v: must be positive", duration)
	}
	if !(pps > 0) {
		return 0, nil
	}
	interval := time.Duration(float64(time.Second) / pps)
	if interval <= 0 {
		return 0, fmt.Errorf("-pps %g: the packet interval rounds to under 1ns (want at most 1e9)", pps)
	}
	return interval, nil
}

// faultProfile maps the -faults flag value to an injector profile.
func faultProfile(name string) (faults.Profile, bool) {
	switch name {
	case "", "none":
		return faults.None(), name != ""
	case "transient":
		return faults.TransientErrors(), true
	case "latency":
		return faults.LatencySpikes(), true
	case "partial":
		return faults.PartialBatches(), true
	case "stuck":
		return faults.StuckChannel(), true
	case "crash-prepare":
		return faults.CrashMidPrepare(), true
	case "crash-commit":
		return faults.CrashAtCommit(), true
	case "crash-mirror":
		return faults.CrashMidMirror(), true
	default:
		fmt.Fprintf(os.Stderr, "mantisd: unknown fault profile %q (want none|transient|latency|partial|stuck|crash-prepare|crash-commit|crash-mirror)\n", name)
		os.Exit(2)
		panic("unreachable")
	}
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
	r := prog.Registers[names[0]]
	n = uint64(r.Instances)
	if n > 16 {
		n = 16
	}
	return names[0], n, true
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
// network-wide DoS scenario end to end. failSpine ≥ 0 crashes that
// spine at duration/3 and restores it at 2·duration/3; grayTrunk (if
// non-empty) silently degrades one leaf↔spine trunk over the same
// window instead.
func runTopology(spec string, duration, pacing time.Duration, seed int64, ctlDelay time.Duration, ctlProf faults.LinkProfile, failSpine int, grayTrunk, target string) {
	rest, ok := strings.CutPrefix(spec, "leafspine:")
	var leaves, spines int
	if ok {
		if _, err := fmt.Sscanf(rest, "%d,%d", &leaves, &spines); err != nil {
			ok = false
		}
	}
	if !ok || leaves < 1 || spines < 1 {
		fmt.Fprintf(os.Stderr, "mantisd: -topology %q: want leafspine:L,S with L,S ≥ 1\n", spec)
		os.Exit(2)
	}

	cfg := fabric.DosFabricConfig{Fabric: fabric.Config{
		Leaves: leaves, Spines: spines, Seed: seed,
		Pacing: pacing, CtlDelay: ctlDelay, CtlProfile: ctlProf,
		Target: target,
	}}
	if ctlProf.Loss > 0 || ctlProf.PartitionEvery > 0 {
		// Sustained channel faults need a longer per-op budget; see
		// fabric.Config.CtlOpDeadline.
		cfg.Fabric.CtlOpDeadline = 2 * time.Millisecond
	}
	s := sim.New(seed)
	d, err := fabric.NewDosFabric(s, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
		os.Exit(1)
	}
	// Failure injection: land at 1/3 of the run, heal at 2/3, so the
	// report shows detection, reroute, and restore all inside -duration.
	failAt, healAt := duration/3, 2*duration/3
	if failSpine >= 0 {
		if failSpine >= spines {
			fmt.Fprintf(os.Stderr, "mantisd: -fail-spine %d: fabric has spines 0..%d\n", failSpine, spines-1)
			os.Exit(2)
		}
		name := d.F.Spines[failSpine].Name
		s.Schedule(failAt, func() {
			if err := d.F.Crash(name); err != nil {
				fmt.Fprintf(os.Stderr, "mantisd: crash %s: %v\n", name, err)
			}
		})
		s.Schedule(healAt, func() {
			if err := d.F.Restore(name); err != nil {
				fmt.Fprintf(os.Stderr, "mantisd: restore %s: %v\n", name, err)
			}
		})
	}
	if grayTrunk != "" {
		gl, gs, rate, err := parseGrayTrunk(grayTrunk)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
			os.Exit(2)
		}
		if gl < 0 || gl >= leaves || gs < 0 || gs >= spines {
			fmt.Fprintf(os.Stderr, "mantisd: -gray-trunk %d,%d: fabric is %d×%d\n", gl, gs, leaves, spines)
			os.Exit(2)
		}
		tr := d.F.Trunks[gl][gs]
		s.Schedule(failAt, func() { tr.SetGray(rate) })
		s.Schedule(healAt, func() { tr.SetGray(0) })
	}

	const warmup = 2 * time.Millisecond
	tail := duration - warmup
	if tail < time.Millisecond {
		tail = time.Millisecond
	}
	if err := d.Run(warmup, tail); err != nil {
		fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("topology:          leaf-spine %d×%d (%d switches), victim on leaf0, flood at spine0's border port\n",
		leaves, spines, leaves+spines)
	fmt.Printf("virtual time:      %v\n", s.Now())
	for _, n := range d.F.Nodes() {
		ast := n.Agent.Stats()
		cs := n.AgentCli.ChanStats()
		ccs := n.CoordCli.ChanStats()
		fmt.Printf("  %-8s %6d iterations, %5d commits, agent ch %d ops (%d retx), coord ch %d ops (%d retx)\n",
			n.Name, ast.Iterations, ast.Commits, cs.Ops, cs.Retransmits, ccs.Ops, ccs.Retransmits)
	}
	var up, down netsim.TrunkStats
	for _, row := range d.F.Trunks {
		for _, tr := range row {
			u, dn := tr.Stats(0), tr.Stats(1)
			up.Sent += u.Sent
			up.Delivered += u.Delivered
			up.Lost += u.Lost
			down.Sent += dn.Sent
			down.Delivered += dn.Delivered
			down.Lost += dn.Lost
		}
	}
	fmt.Printf("trunks:            leaf→spine %d sent / %d delivered, spine→leaf %d sent / %d delivered, %d lost\n",
		up.Sent, up.Delivered, down.Sent, down.Delivered, up.Lost+down.Lost)
	// Per-trunk drop-reason accounting: only trunks that dropped
	// anything are listed, with the cause split out.
	for l, row := range d.F.Trunks {
		for sp, tr := range row {
			var t netsim.TrunkStats
			for _, st := range []netsim.TrunkStats{tr.Stats(0), tr.Stats(1)} {
				t.Lost += st.Lost
				t.PartitionDrops += st.PartitionDrops
				t.AdminDownDrops += st.AdminDownDrops
				t.GrayDrops += st.GrayDrops
			}
			if t.Lost+t.PartitionDrops+t.AdminDownDrops+t.GrayDrops == 0 {
				continue
			}
			fmt.Printf("  leaf%d↔spine%d: %d lost (profile), %d partition, %d admin-down, %d gray\n",
				l, sp, t.Lost, t.PartitionDrops, t.AdminDownDrops, t.GrayDrops)
		}
	}

	cst := d.F.Coord.Stats()
	fmt.Printf("coordinator:       %d events (%d blocks, %d hh reports), %d filter installs, %d degraded (%d audited present, %d reissued)\n",
		cst.Events, cst.Blocks, cst.HHReports, cst.FilterInstalls, cst.DegradedInstalls, cst.AuditConfirmed, cst.Reissues)
	if cst.GraySuspects+cst.GrayClears > 0 {
		fmt.Printf("health:            %d gray suspects, %d clears, %d reroutes (%d route moves, %d degraded, %d reissued)\n",
			cst.GraySuspects, cst.GrayClears, cst.Reroutes, cst.RouteMoves, cst.DegradedRouteMoves, cst.RouteReissues)
		for sp := range d.F.Spines {
			h := d.F.Coord.Health(sp)
			suspects := make([]string, 0, len(h.Suspects))
			for name := range h.Suspects {
				suspects = append(suspects, name)
			}
			sort.Strings(suspects)
			line := fmt.Sprintf("  spine%d: %v", sp, h.State)
			if len(suspects) > 0 {
				line += fmt.Sprintf(" (suspected by %s)", strings.Join(suspects, ", "))
			}
			fmt.Println(line)
		}
		for _, rr := range d.F.Coord.Reroutes() {
			verb := "exclude"
			if !rr.Exclude {
				verb = "restore"
			}
			done := "pending"
			if rr.DoneAt != 0 {
				done = fmt.Sprintf("committed +%v", rr.DoneAt.Sub(rr.At))
			}
			fmt.Printf("  reroute @%v: %s spine%d (evidence %s), %d moves, %s\n",
				rr.At, verb, rr.Spine, rr.Leaf, rr.Moves, done)
		}
	}
	if esc := d.Escalation(); esc != nil {
		fmt.Printf("escalation:        detected by %s %v after flood start; spines filtered +%v, all %d switches +%v\n",
			esc.DetectedBy, esc.DetectedAt.Sub(d.FloodStart), esc.SpinesDoneAt.Sub(esc.DetectedAt),
			len(esc.Installed), esc.AllDoneAt.Sub(esc.DetectedAt))
		if sup, err := d.Suppression(s.Now()); err == nil {
			fmt.Printf("suppression:       %.1f%% of attack traffic removed from the victim leaf's trunks\n", sup*100)
		}
	} else {
		fmt.Printf("escalation:        none (flood never detected within -duration)\n")
	}
	fmt.Printf("heavy hitters:     top 5 of %d tracked senders:\n", len(d.DeliveredBySrc))
	for _, e := range d.F.Coord.TopK(5) {
		fmt.Printf("  %#x  est %d bytes  (delivered %d)\n", e.Src, e.Bytes, d.DeliveredBySrc[e.Src])
	}
}

func main() {
	duration := flag.Duration("duration", 10*time.Millisecond, "virtual run time")
	pacing := flag.Duration("pacing", 0, "dialogue pacing (0 = busy loop)")
	pps := flag.Float64("pps", 100000, "synthetic traffic rate (packets/second)")
	seed := flag.Int64("seed", 1, "random seed")
	faultsFlag := flag.String("faults", "", "inject driver-channel faults: none|transient|latency|partial|stuck (enables agent recovery), or crash the primary with crash-prepare|crash-commit|crash-mirror (enables journaled failover to a standby)")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed (independent of -seed)")
	legacyClients := flag.Int("legacy-clients", 0, "concurrent legacy control-plane clients churning a table through bulk sessions")
	sched := flag.String("sched", "priority", "control-plane scheduling policy: priority|fifo")
	ctlDelay := flag.Duration("ctl-delay", 0, "run the dialogue over a message-based control channel with this one-way link delay (0 = in-process calls unless another -ctl-* flag is set, then 500ns)")
	ctlLoss := flag.Float64("ctl-loss", 0, "control-channel frame loss probability per direction (implies the message channel)")
	ctlPartition := flag.String("ctl-partition", "", "periodic control-channel partitions, EVERY/FOR (e.g. 700us/300us; implies the message channel)")
	topology := flag.String("topology", "", "run a multi-switch fabric instead of one switch: leafspine:L,S (uses built-in programs; no program argument)")
	target := flag.String("target", place.DefaultTarget, "switch profile the program must place under: a built-in name, a .json profile file, or \"none\" to assign stages without budgets")
	failSpine := flag.Int("fail-spine", -1, "with -topology: crash this spine (all trunks down, control endpoints dead, agent halted) at duration/3, restore at 2·duration/3")
	grayTrunk := flag.String("gray-trunk", "", "with -topology: silently degrade one leaf↔spine trunk, L,S[:RATE] (e.g. 0,1:0.3), over the same fail/heal window")
	flag.Parse()

	ctlProf, err := ctlLinkProfile(*ctlLoss, *ctlPartition)
	var interval time.Duration
	if err == nil {
		interval, err = trafficInterval(*duration, *pps)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
		os.Exit(2)
	}
	if *topology != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "mantisd: -topology uses the built-in fabric programs; no program argument")
			os.Exit(2)
		}
		if *faultsFlag != "" || *legacyClients > 0 {
			fmt.Fprintln(os.Stderr, "mantisd: -topology cannot be combined with -faults or -legacy-clients")
			os.Exit(2)
		}
		runTopology(*topology, *duration, *pacing, *seed, *ctlDelay, ctlProf, *failSpine, *grayTrunk, *target)
		return
	}
	if *failSpine >= 0 || *grayTrunk != "" {
		fmt.Fprintln(os.Stderr, "mantisd: -fail-spine and -gray-trunk require -topology")
		os.Exit(2)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mantisd [flags] program.p4r")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	copts := compiler.DefaultOptions()
	copts.Target = *target
	plan, err := compiler.CompileSource(string(src), copts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("placement:         profile %s, %d ingress + %d egress stages, fits\n",
		plan.Placement.Profile.Name, plan.Placement.IngressStages, plan.Placement.EgressStages)

	s := sim.New(*seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
		os.Exit(1)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	ch := driver.Channel(drv)
	var inj *faults.Injector
	opts := core.Options{Pacing: *pacing}
	prof, faultsActive := faultProfile(*faultsFlag)
	crash := faultsActive && prof.CrashEnabled()
	if faultsActive && !crash {
		// In-process fault classes wrap the shared channel below the
		// control-plane service; the agent's recovery loop survives them.
		inj = faults.Wrap(s, drv, prof, *faultSeed)
		ch = inj
		opts.Recovery = core.DefaultRecovery()
		// Let the prologue install cleanly; faults start shortly after.
		inj.SetEnabled(false)
		s.Schedule(50*sim.Microsecond, func() { inj.SetEnabled(true) })
	}
	var policy ctlplane.Policy
	switch *sched {
	case "priority":
		policy = ctlplane.PolicyPriority
	case "fifo":
		policy = ctlplane.PolicyFIFO
	default:
		fmt.Fprintf(os.Stderr, "mantisd: unknown scheduling policy %q (want priority|fifo)\n", *sched)
		os.Exit(2)
	}
	ctlEnabled := *ctlDelay > 0 || *ctlLoss > 0 || *ctlPartition != ""
	if ctlEnabled && crash {
		fmt.Fprintln(os.Stderr, "mantisd: -ctl-* flags cannot be combined with crash fault profiles (the standby takes over through the control-plane service, not the message channel)")
		os.Exit(2)
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
	if crash {
		// A crash profile kills the agent process outright, so the wiring
		// is the failover stack: the injector wraps the primary's own
		// session (the shared service must survive the crash), the
		// agent write-ahead journals every iteration, and a hot standby
		// watches the journal heartbeat, ready to elect itself primary
		// and reconcile the switch.
		sess, err := svc.Open(ctlplane.SessionOptions{
			Name: "mantis-agent", Role: ctlplane.RolePrimary, ElectionID: 1,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
			os.Exit(1)
		}
		inj = faults.Wrap(s, sess, prof, *faultSeed)
		store := journal.NewMemStore()
		opts.Recovery = core.DefaultRecovery()
		opts.Journal = &core.JournalConfig{Store: store}
		agent = core.NewAgent(s, inj, plan, opts)
		inj.SetEnabled(false)
		s.Schedule(50*sim.Microsecond, func() { inj.SetEnabled(true) })
		sb = core.NewStandby(s, svc, core.StandbyOptions{
			Name:       "standby",
			ElectionID: 2,
			Store:      store,
			Plan:       plan,
			Agent:      core.Options{Pacing: *pacing, Recovery: core.DefaultRecovery()},
		})
	} else if ctlEnabled {
		// Message-channel mode: the agent's session is reached over a
		// simulated lossy link — request/response frames with sequence
		// numbers, retransmission, and epoch fencing — instead of
		// in-process calls. The link starts clean so the prologue installs
		// reliably; the configured faults arm at 50µs.
		delay := *ctlDelay
		if delay <= 0 {
			delay = 500 * time.Nanosecond
		}
		sess, err := svc.Open(ctlplane.SessionOptions{
			Name: "mantis-agent", Role: ctlplane.RolePrimary, ElectionID: 1,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
			os.Exit(1)
		}
		ctlLink = netsim.NewLink(s, delay, faults.LinkNone(), *seed)
		ctlSrv = ctlchan.NewServer(s)
		ctlSrv.Attach(ctlLink, netsim.LinkSideB, 1, 1, sess)
		ctlCli = ctlchan.NewClient(s, ctlLink, netsim.LinkSideA, ctlchan.ClientOptions{
			Session: 1, Epoch: 1, Meta: drv,
		})
		s.Schedule(50*sim.Microsecond, func() { ctlLink.SetProfile(ctlProf) })
		opts.Recovery = core.RecoveryForChannel(ctlCli.RTT())
		opts.Journal = &core.JournalConfig{Store: journal.NewMemStore()}
		agent = core.NewAgent(s, ctlCli, plan, opts)
	} else {
		var err error
		agent, _, err = core.NewSessionAgent(s, svc, 1, plan, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
			os.Exit(1)
		}
	}
	agent.Start()

	// Legacy clients churn a non-Mantis table (or fall back to register
	// reads) through their own bulk sessions, best-effort under faults.
	legacyErrs := 0
	if *legacyClients > 0 {
		table, action, nKeys, nParams, haveTable := legacyChurnTarget(plan)
		reg, regN, haveReg := legacyReadTarget(plan.Prog)
		if !haveTable && !haveReg {
			fmt.Fprintln(os.Stderr, "mantisd: -legacy-clients: program has no non-Mantis table or register to churn")
			os.Exit(2)
		}
		for c := 0; c < *legacyClients; c++ {
			c := c
			sess, err := svc.Open(ctlplane.SessionOptions{
				Name: fmt.Sprintf("legacy%d", c), Role: ctlplane.RoleLegacy,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "mantisd: %v\n", err)
				os.Exit(1)
			}
			s.Spawn(sess.Name(), func(p *sim.Proc) {
				rng := s.Rand()
				var h rmt.EntryHandle
				if haveTable {
					keys := make([]rmt.KeySpec, nKeys)
					for i := range keys {
						keys[i] = rmt.ExactKey(uint64(c + 1))
					}
					var err error
					if h, err = sess.AddEntry(p, table, rmt.Entry{
						Keys: keys, Action: action, Data: make([]uint64, nParams),
					}); err != nil {
						legacyErrs++
						return
					}
				}
				for i := 0; ; i++ {
					p.Sleep(time.Duration(rng.Intn(5000)) * time.Nanosecond)
					var err error
					if haveTable {
						data := make([]uint64, nParams)
						for j := range data {
							data[j] = uint64(i)
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
	if interval > 0 {
		rng := s.Rand()
		names := plan.Prog.Schema.Names()
		s.Every(interval, func() {
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

	s.RunFor(*duration)
	agent.Stop()
	if sb != nil {
		sb.Stop()
		if succ := sb.Agent(); succ != nil {
			succ.Stop()
		}
	}
	s.RunFor(time.Millisecond)
	if err := agent.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "mantisd: agent: %v\n", err)
		os.Exit(1)
	}

	ast := agent.Stats()
	sst := sw.Stats()
	dst := drv.Stats()
	fmt.Printf("virtual time:      %v\n", s.Now())
	fmt.Printf("dialogue:          %d iterations, %d commits, busy %v (%.1f%% CPU)\n",
		ast.Iterations, ast.Commits, ast.Busy, 100*float64(ast.Busy)/float64(s.Now().Duration()))
	fmt.Printf("iteration latency: %v\n", stats.SummarizeDurations(ast.Latencies))
	fmt.Printf("switch:            rx %d, tx %d, drops %d (ingress) / %d (queue)\n",
		sst.RxPackets, sst.TxPackets, sst.IngressDrops, sst.QueueDrops)
	fmt.Printf("driver:            %d table ops (%d memoized), %d reads (%d bytes)\n",
		dst.TableOps, dst.MemoizedOps, dst.RegReads, dst.RegReadBytes)
	cst := svc.Stats()
	fmt.Printf("ctlplane:          policy %s, %d sessions, %d dialogue ops, %d bulk ops, %d rejections, %d demotions\n",
		policy, len(svc.Sessions()), cst.DialogueOps, cst.BulkOps, cst.Rejections, cst.Demotions)
	for _, sess := range svc.Sessions() {
		sst := sess.SessionStats()
		meanWait := time.Duration(0)
		if sst.Completed > 0 {
			meanWait = sst.TotalWait / time.Duration(sst.Completed)
		}
		fmt.Printf("  session %-14s %s/%s: %d completed, %d failed, %d rejected, max queue %d, mean wait %v, max wait %v\n",
			sess.Name(), sess.Role(), sess.Class(), sst.Completed, sst.Failed, sst.Rejected, sst.MaxQueueDepth, meanWait, sst.MaxWait)
	}
	if legacyErrs > 0 {
		fmt.Printf("legacy clients:    %d operations failed (best-effort churn under faults)\n", legacyErrs)
	}
	if inj != nil {
		fst := inj.FaultStats()
		fmt.Printf("faults (%s):   %d ops, %d errors, %d spikes, %d partial batches, %d stuck waits (%v wedged)\n",
			inj.Profile().Name, fst.Ops, fst.InjectedErrors, fst.InjectedSpikes, fst.PartialBatches, fst.StuckWaits, fst.StuckTime)
		fmt.Printf("recovery:          %d retries, %d rollbacks, %d watchdog trips, %d abandoned, %d degraded, %d repair ops\n",
			ast.Retries, ast.Rollbacks, ast.WatchdogTrips, ast.Abandoned, ast.Degraded, ast.RepairOps)
	}
	if ctlCli != nil {
		cs, css, ls := ctlCli.ChanStats(), ctlSrv.Stats(), ctlLink.Stats()
		fmt.Printf("ctl channel:       rtt %v, %d ops, %d frames sent, %d retransmits, %d timeouts, %d late responses, %d window waits\n",
			ctlCli.RTT(), cs.Ops, cs.Sent, cs.Retransmits, cs.Timeouts, cs.LateResponses, cs.WindowWaits)
		fmt.Printf("  server:          %d frames, %d executed (%d mutations), %d dedup hits, %d stale rejected, %d fenced\n",
			css.Frames, css.Executed, css.MutationsExecuted, css.DedupHits, css.StaleWrites, css.FencedWrites)
		fmt.Printf("  link:            %d sent, %d delivered, %d lost, %d partition drops, %d duplicated, %d reordered\n",
			ls.Sent, ls.Delivered, ls.Lost, ls.PartitionDrops, ls.Duplicated, ls.Reordered)
		fmt.Printf("  recovery:        %d retries, %d abandoned, %d degraded, %d resyncs (%d repair writes), %d staleness aborts\n",
			ast.Retries, ast.Abandoned, ast.Degraded, ast.Resyncs, ast.ResyncWrites, ast.StalenessAborts)
	}
	if sb != nil {
		if err := sb.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "mantisd: standby: %v\n", err)
			os.Exit(1)
		}
		if !sb.TookOver() {
			fmt.Printf("takeover:          none (crash never fired within -duration, or primary still healthy)\n")
		} else {
			rep := sb.Report()
			succ := sb.Agent()
			if err := succ.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "mantisd: successor: %v\n", err)
				os.Exit(1)
			}
			crashAt := inj.CrashedAt()
			sst := succ.Stats()
			fmt.Printf("takeover:          outcome %s, %d repair writes over %d audited entries\n",
				rep.Recover.Outcome, rep.Recover.RepairWrites, rep.Recover.AuditedEntries)
			fmt.Printf("  MTTR:            %v (detect %v, audit %v, reconcile %v, resume %v)\n",
				rep.ResumedAt.Sub(crashAt), rep.DetectedAt.Sub(crashAt),
				rep.Recover.AuditTime, rep.Recover.ReconcileTime, rep.ResumedAt.Sub(rep.RecoveredAt))
			fmt.Printf("  successor:       %d iterations, %d commits after takeover\n", sst.Iterations-rep.Recover.Iteration, sst.Commits)
		}
	}
	for _, rxn := range plan.Reactions {
		fmt.Printf("reaction:          %s\n", rxn.Name)
	}
}
