// Package core implements the Mantis control-plane agent — the paper's
// primary contribution (§6).
//
// The agent runs as a simulated process on the switch CPU. Its life is
// split into the two phases of the paper:
//
//   - Prologue: seed the agent's image from the plan's initial
//     malleable values and reconcile a fresh switch onto it — the same
//     reconcile a takeover and a resync run — which installs the master
//     init default action, the vv-keyed entries of any additional init
//     tables and the static loader entries, and memoizes the driver
//     descriptors the dialogue repeats; then compile reaction bodies and
//     run user setup.
//
//   - Dialogue: a (optionally paced) loop that, per iteration, flips
//     the measurement version bit, polls each reaction's parameters
//     from the checkpoint copies, executes the reactions, and commits
//     their effects with the serializable three-phase protocol:
//     prepares target the shadow (vv^1) copies, a single master
//     init-table update atomically flips vv together with all malleable
//     value/field changes, and the mirror step re-applies the changes
//     to the now-shadow copy.
//
// Reactions come in two forms: the C-like bodies embedded in .p4r
// source (interpreted by internal/rcl — the analogue of the paper's
// dynamically loaded .so files) and native Go functions registered
// against a reaction's polling declaration.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/driver"
	"repro/internal/journal"
	"repro/internal/p4"
	"repro/internal/rcl"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// Options configures an Agent.
type Options struct {
	// Name labels the agent in exported events; a fabric coordinator
	// uses it to tell which switch an event came from.
	Name string
	// EventSink, if set, receives every Event a reaction emits via
	// Ctx.Emit. The sink runs synchronously inside the agent's dialogue
	// process at emission time; it must not block, and should hand off
	// to its own process (queue + Unpark) for any real work.
	EventSink func(Event)
	// Pacing inserts a sleep between dialogue iterations, trading
	// reaction latency for CPU utilization (Fig. 11). Zero = busy loop.
	Pacing time.Duration
	// MaxIterations stops the dialogue after this many iterations
	// (0 = run until Stop).
	MaxIterations uint64
	// LatencySamples caps the retained per-iteration latency samples.
	LatencySamples int
	// Prologue, if set, runs at the end of the prologue phase (user
	// initialization: populating initial table entries etc.).
	Prologue func(p *sim.Proc, a *Agent) error
	// AfterIteration, if set, runs after each dialogue iteration.
	AfterIteration func(p *sim.Proc, a *Agent)
	// Recovery configures fault tolerance for the dialogue loop. The
	// zero value derives it from the channel: RecoveryForChannel of the
	// channel's RTT() when it has one (a ctlchan.Client), else of 0.
	Recovery RecoveryOptions
	// Journal, if set, makes the loop crash-consistent: a write-ahead
	// intent record precedes every three-phase update and a checkpoint
	// of the committed configuration follows it, so a standby can take
	// over via core.Recover after this agent dies mid-update.
	Journal *JournalConfig
}

// Stats aggregates dialogue-loop metrics.
type Stats struct {
	Iterations     uint64
	Commits        uint64
	ReactionErrors uint64
	// Retries counts driver operations reissued after a transient
	// channel failure.
	Retries uint64
	// Rollbacks counts abandoned iterations whose staged shadow updates
	// and pending malleable writes were rolled back.
	Rollbacks uint64
	// WatchdogTrips counts iterations abandoned by the deadline watchdog.
	WatchdogTrips uint64
	// Abandoned counts iterations abandoned for any recoverable reason
	// (retries exhausted, watchdog, retry budget spent).
	Abandoned uint64
	// Degraded counts iterations where at least one reaction fell back
	// to its last checkpointed measurement snapshot because polling
	// failed.
	Degraded uint64
	// RepairOps counts shadow-side operations that could not complete
	// during rollback or mirror and were left to the resync before the
	// next iteration.
	RepairOps uint64
	// Resyncs counts completed resynchronizations: after an iteration
	// died on driver.ErrChannelDegraded (the op's fate unknown) or a
	// shadow-side write failed for good, the agent audited the switch
	// against its committed image and reconciled any divergence before
	// proceeding.
	Resyncs uint64
	// ResyncWrites counts the fix-up writes those resyncs issued.
	ResyncWrites uint64
	// AmbiguousFlips counts master vv flips that timed out degraded and
	// had to be resolved by reading the master back (the one op whose
	// ambiguity cannot wait for a later audit — the flip decides which
	// table copies packets see).
	AmbiguousFlips uint64
	// StalenessAborts counts iterations abandoned because a reaction's
	// degradation snapshot aged past RecoveryOptions.StalenessBudget.
	StalenessAborts uint64
	// Busy is the total virtual time spent inside iterations (excludes
	// pacing sleeps); divide by elapsed time for CPU utilization.
	Busy time.Duration
	// LastIteration is the latency of the most recent iteration.
	LastIteration time.Duration
	// Latencies holds up to LatencySamples per-iteration latencies.
	Latencies []time.Duration
}

// runtimeReaction pairs a plan reaction with its executable body and
// the dispatch state compiled at setup (see setupReactionRuntime in
// reaction.go): precomputed poll batches, reusable read buffers,
// persistent parameter storage, and — for interpreted bodies — a
// prepared rcl.Frame with parameters bound by pointer/reference. The
// steady-state iteration touches only this preallocated state.
type runtimeReaction struct {
	info   *compiler.ReactionInfo
	prog   *rcl.Program   // interpreted body (nil if native)
	native NativeReaction // native override (nil if interpreted)

	// Compiled poll plan: the full ReadReq batch per checkpoint bit, a
	// reusable result matrix, and the persistent read op that carries
	// them through drvDo, so a poll allocates nothing.
	pollReqs [2][]driver.ReadReq
	rows     [][]uint64
	poll     driver.Op

	// Persistent parameter storage, refilled in place each iteration.
	fields map[string]uint64
	regs   map[string][]uint64

	// Interpreted dispatch: prepared frame plus the flat copy
	// instructions that move polled values into its bound cells.
	frame    *rcl.Frame
	fieldDst []scalarBind
	mblDst   []scalarBind
	regDst   []arrayBind

	ctx  Ctx     // reused for native dispatch
	host rclHost // reused for interpreted dispatch

	// hasSnapshot marks that fields and regs hold a successful poll —
	// the degradation snapshot a reaction runs on when polling fails,
	// since only a successful poll refills them.
	// lastPollAt stamps that poll, so the staleness budget can refuse
	// snapshots that have aged past usefulness.
	hasSnapshot bool
	lastPollAt  sim.Time
	// ran marks a body run in the current iteration; abandoned, that the
	// body's latest run belonged to an abandoned iteration (Ctx.Abandoned).
	ran, abandoned bool
}

// Agent is one Mantis control-plane instance driving one pipeline.
type Agent struct {
	sim *sim.Simulator
	drv driver.Channel
	// retry is drv with the retry policy applied: an Adapter over drvDo
	// (recovery.go). Raw drv calls are the exceptions that must not
	// retry — memoization and the flip-resolution read.
	retry driver.Adapter
	plan  *compiler.Plan
	opts  Options

	vv, mv uint64
	// initData mirrors the currently-committed action data of each init
	// table, indexed like plan.InitTables.
	initData [][]uint64
	// initHandles[t][v] is the entry handle of non-master init table t
	// (t>0) for version v, indexed like plan.InitTables.
	initHandles [][2]rmt.EntryHandle

	mblCache   map[string]uint64
	pendingMbl map[string]uint64

	tables   map[string]*tableManager
	regCache map[string]*regCacheState
	// tableNames and regNames are the key sets of tables and regCache in
	// sorted order; both maps are fixed at construction.
	tableNames []string
	regNames   []string

	reactions []*runtimeReaction
	natives   map[string]NativeReaction

	started bool
	// pendingSwaps holds reaction reloads staged by SwapReaction; the
	// dialogue loop links them in between iterations (§7's dynamic
	// loading of new .so files without interrupting switch operations).
	pendingSwaps []reactionSwap
	stats        Stats

	// Control-plane fast-path scratch: the master init table's call is a
	// persistent buffer whose data is masterScratch for the mv flip and
	// targetInit[0] for the commit flip, and flipOp is the persistent op
	// that carries it through drvDo, so the twice-per-iteration master
	// update allocates nothing. Set up in prologue.
	masterScratch []uint64
	masterCall    p4.ActionCall
	flipOp        driver.Op

	// intentScratch and cpScratch are the pooled write-ahead intent and
	// checkpoint records, refilled in place each iteration; the journal
	// stores serialize on write and never retain them (the journal.Store
	// contract). targetInit is commit's scratch: the init data of every
	// init table as the commit will leave it, with nmChanged the indices
	// of the non-master tables it changes.
	intentScratch journal.Intent
	cpScratch     journal.Checkpoint
	targetInit    [][]uint64
	nmChanged     []int

	// stopReq and err may be touched from outside the simulation
	// goroutine (Stop from a test's main goroutine, Err after Run
	// returns), so they get atomic/mutex protection.
	stopReq atomic.Bool
	errMu   sync.Mutex
	err     error

	// Recovery state (see recovery.go). iterDeadline is the watchdog
	// cutoff for the current iteration (0 = none); iterRetries counts
	// retries spent inside it; iterDegraded marks that some reaction ran
	// on a stale snapshot.
	iterDeadline sim.Time
	iterRetries  int
	iterDegraded bool
	// resyncPending marks that the switch may differ from the committed
	// image: an abandoned operation may have applied switch-side (the
	// channel went degraded mid-iteration), or a shadow-side write failed
	// for good (leaveToResync). Before the next iteration stages
	// anything, resync audits the switch against the committed image and
	// reconciles, so no vv flip exposes an unconverged shadow.
	// flipUnresolved marks a stop honored while a master flip's fate was
	// still unknown: the exit path must NOT roll back or retire the
	// journal intent — the CommitStaged record is exactly what a
	// successor needs to classify the torn state.
	resyncPending  bool
	flipUnresolved bool

	// staged is the iteration's staged-op log (staged.go): every table op
	// its reactions staged, in global staging order; held, the events.
	staged []stagedOp
	held   []heldEvent
	// recovered marks an agent reconstructed by Recover, whose prologue
	// must not re-install switch state.
	recovered  bool
	builtinTap func(name string, v int64, err error) // if set, sees every builtin's answer
}

// NewAgent creates an agent for a compiled plan over a driver channel
// (a *driver.Driver, or any interposing layer such as faults.Injector).
func NewAgent(s *sim.Simulator, drv driver.Channel, plan *compiler.Plan, opts Options) *Agent {
	if opts.LatencySamples == 0 {
		opts.LatencySamples = 4096
	}
	if opts.Recovery == (RecoveryOptions{}) {
		var rtt time.Duration
		if c, ok := drv.(interface{ RTT() time.Duration }); ok {
			rtt = c.RTT()
		}
		opts.Recovery = RecoveryForChannel(rtt)
	}
	a := &Agent{
		sim:         s,
		drv:         drv,
		plan:        plan,
		opts:        opts,
		initHandles: make([][2]rmt.EntryHandle, len(plan.InitTables)),
		mblCache:    make(map[string]uint64),
		pendingMbl:  make(map[string]uint64),
		tables:      make(map[string]*tableManager),
		regCache:    make(map[string]*regCacheState),
		natives:     make(map[string]NativeReaction),
	}
	a.retry = driver.NewAdapter(a.drvDo, drv)
	a.stats.Latencies = make([]time.Duration, 0, opts.LatencySamples)
	for name, info := range plan.MblTables {
		a.tables[name] = newTableManager(a, info)
		a.tableNames = append(a.tableNames, name)
	}
	sort.Strings(a.tableNames)
	for _, info := range plan.Reactions {
		for _, rp := range info.RegParams {
			if _, ok := a.regCache[rp.Orig]; !ok {
				a.regCache[rp.Orig] = newRegCacheState(rp)
				a.regNames = append(a.regNames, rp.Orig)
			}
		}
	}
	sort.Strings(a.regNames)
	return a
}

// Driver returns the agent's driver channel.
func (a *Agent) Driver() driver.Channel { return a.drv }

// Stats returns a copy of the dialogue statistics.
func (a *Agent) Stats() Stats {
	st := a.stats
	st.Latencies = append([]time.Duration(nil), a.stats.Latencies...)
	return st
}

// Err returns the error that stopped the agent, if any. Safe to call
// from any goroutine.
func (a *Agent) Err() error {
	a.errMu.Lock()
	defer a.errMu.Unlock()
	return a.err
}

func (a *Agent) setErr(err error) {
	a.errMu.Lock()
	a.err = err
	a.errMu.Unlock()
}

// Mbl returns the last committed value of a malleable (the alt index
// for malleable fields).
func (a *Agent) Mbl(name string) (uint64, bool) {
	v, ok := a.mblCache[name]
	return v, ok
}

// Table returns the user-level handle of a malleable table.
func (a *Agent) Table(name string) (*TableHandle, error) {
	tm, ok := a.tables[name]
	if !ok {
		return nil, fmt.Errorf("core: table %q is not malleable (no runtime info)", name)
	}
	return &tm.th, nil
}

// RegisterNativeReaction replaces the interpreted body of the named
// plan reaction with a Go function. Must be called before Start.
func (a *Agent) RegisterNativeReaction(name string, fn NativeReaction) error {
	if a.started {
		return fmt.Errorf("core: agent already started")
	}
	for _, r := range a.plan.Reactions {
		if r.Name == name {
			a.natives[name] = fn
			return nil
		}
	}
	return fmt.Errorf("core: no reaction %q in plan", name)
}

// Start spawns the agent process (prologue then dialogue loop).
func (a *Agent) Start() {
	if a.started {
		panic("core: agent started twice")
	}
	a.started = true
	a.sim.Spawn("mantis-agent", a.run)
}

// Stop requests the dialogue loop to exit. Safe to call from any
// goroutine. The request is honored mid-iteration at the next reaction
// or retry boundary; an iteration cut short is rolled back (its staged
// changes are discarded) so the committed configuration stays
// consistent, and Err() remains nil.
func (a *Agent) Stop() { a.stopReq.Store(true) }

func (a *Agent) stopRequested() bool { return a.stopReq.Load() }

// reactionSwap is a staged reaction reload.
type reactionSwap struct {
	name  string
	stmts []rcl.Stmt
}

// SwapReaction replaces a running reaction's body without stopping the
// agent — the paper's dynamic-loading path: the swap takes effect after
// the current dialogue iteration completes. The body is checked in the
// running program as the analyzer checks a compiled one
// (compiler.Plan.CheckBody); one it rejects is refused here, with the
// analyzer's diagnostics.
func (a *Agent) SwapReaction(name, body string) error {
	if body == "" {
		return fmt.Errorf("core: SwapReaction needs a body")
	}
	stmts, err := a.plan.CheckBody(name, body)
	if err != nil {
		return fmt.Errorf("core: swap %s: %w", name, err)
	}
	a.pendingSwaps = append(a.pendingSwaps, reactionSwap{name: name, stmts: stmts})
	return nil
}

// applySwaps links staged reaction reloads. Runs on the agent process
// between dialogue iterations.
func (a *Agent) applySwaps(p *sim.Proc) error {
	swaps := a.pendingSwaps
	a.pendingSwaps = nil
	for _, sw := range swaps {
		for _, rr := range a.reactions {
			if rr.info.Name != sw.name {
				continue
			}
			prog, err := rcl.NewProgram(sw.stmts)
			if err != nil {
				return fmt.Errorf("swap %s: %w", sw.name, err)
			}
			rr.prog = prog
			rr.native = nil
			// Relink the compiled dispatch (frame bindings, buffers) to
			// the new body.
			a.setupReactionRuntime(p, rr)
		}
	}
	return nil
}

func (a *Agent) run(p *sim.Proc) {
	if err := a.prologue(p); err != nil {
		a.setErr(fmt.Errorf("prologue: %w", err))
		return
	}
	for !a.stopRequested() {
		if err := a.iteration(p); err != nil {
			switch {
			case errors.Is(err, ErrStopped):
				// Stop honored mid-iteration: discard the partial
				// iteration's staged changes and exit cleanly. The intent
				// truncation is best-effort — if it fails, the leftover
				// intent merely makes a successor re-verify a clean state.
				// Exception: a stop that interrupted an unresolved master
				// flip must leave everything in place — rolling back could
				// fight a flip that actually landed, and the CommitStaged
				// intent is the successor's map of the torn state.
				if a.flipUnresolved {
					return
				}
				a.rollbackIteration(p)
				if a.journaling() {
					_ = a.journalAbandon(p)
				}
				return
			case recoverable(err):
				// Abandon the iteration: undo its staged shadow updates,
				// keep the committed configuration, and continue the loop.
				if errors.Is(err, ErrWatchdog) {
					a.stats.WatchdogTrips++
				}
				if errors.Is(err, driver.ErrChannelDegraded) {
					// The abandoned op may have applied; audit before the
					// next iteration stages anything new.
					a.resyncPending = true
				}
				a.stats.Abandoned++
				a.rollbackIteration(p)
				if jerr := a.journalAbandon(p); jerr != nil {
					a.setErr(jerr)
					return
				}
			default:
				a.setErr(fmt.Errorf("dialogue iteration %d: %w", a.stats.Iterations, err))
				return
			}
		}
		if len(a.pendingSwaps) > 0 {
			if err := a.applySwaps(p); err != nil {
				a.setErr(err)
				return
			}
		}
		if a.opts.AfterIteration != nil {
			a.opts.AfterIteration(p, a)
		}
		if a.opts.MaxIterations > 0 && a.stats.Iterations >= a.opts.MaxIterations {
			return
		}
		if a.opts.Pacing > 0 {
			p.Sleep(a.opts.Pacing)
		} else {
			// A busy loop still yields so same-time data plane events run.
			p.Yield()
		}
	}
}

// ---- Prologue ----

func (a *Agent) prologue(p *sim.Proc) error {
	if len(a.plan.InitTables) > 0 {
		// The master flip fast path: one persistent ActionCall and the op
		// that carries it, shared by the mv flip and the commit flip (they
		// never overlap within an iteration). rmt's setDefault deep-copies,
		// so reusing the data scratch across flips is safe.
		master := a.plan.InitTables[0]
		a.masterCall.Action = master.Action
		a.masterScratch = make([]uint64, 0, len(master.Params))
		a.flipOp = driver.Op{Kind: driver.OpSetDefault, Table: master.Table, Call: &a.masterCall}

		// A recovered agent's image was loaded from the journal and its
		// switch reconciled by Recover. A fresh agent seeds the image from
		// the plan and reconciles a fresh switch onto it: the audit found
		// nothing, so the master default and every table's entries
		// (init-table pairs, loader entries) are installed.
		if !a.recovered {
			a.initData = make([][]uint64, len(a.plan.InitTables))
			for t, it := range a.plan.InitTables {
				data := make([]uint64, len(it.Params))
				for i, ip := range it.Params {
					data[i] = ip.Init
					switch ip.Kind {
					case compiler.InitValue, compiler.InitField:
						a.mblCache[ip.Mbl] = ip.Init
					}
				}
				a.initData[t] = data
			}
			if _, err := a.reconcile(p, switchAudit{tables: auditTableSet(a.plan)}, a.mv); err != nil {
				return err
			}
			a.drv.Memoize(master.Table, 0)
		}
	}

	// Reaction bodies: native overrides win; otherwise build the
	// embedded C-like body from its parsed statements. setupReactionRuntime
	// then compiles the dispatch (poll plan, persistent buffers, prepared
	// frame).
	for _, info := range a.plan.Reactions {
		rr := &runtimeReaction{info: info}
		var err error
		if fn, ok := a.natives[info.Name]; ok {
			rr.native = fn
		} else if rr.prog, err = rcl.NewProgram(info.Stmts); err != nil {
			return fmt.Errorf("reaction %s: %w", info.Name, err)
		}
		a.reactions = append(a.reactions, rr)
		a.setupReactionRuntime(p, rr)
	}

	if a.opts.Prologue != nil && !a.recovered {
		if err := a.opts.Prologue(p, a); err != nil {
			return err
		}
	}
	// The initial configuration is now live: journal it as the recovery
	// baseline. (A crash before this first checkpoint is a boot failure —
	// redeploy, don't fail over.)
	return a.journalCheckpoint(p)
}

// ---- Dialogue ----

// masterData builds the master init table's action data for the given
// version bits, applying any pending malleable writes whose slot lives
// in the master. The result is written into dst (reusing its capacity)
// — the steady-state path passes the agent's persistent scratch, so no
// allocation occurs after warmup.
func (a *Agent) masterData(dst []uint64, vv, mv uint64, applyPending bool) []uint64 {
	master := a.plan.InitTables[0]
	data := append(dst[:0], a.initData[0]...)
	for i, ip := range master.Params {
		switch ip.Kind {
		case compiler.InitVV:
			data[i] = vv
		case compiler.InitMV:
			data[i] = mv
		case compiler.InitValue, compiler.InitField:
			if applyPending {
				if v, ok := a.pendingMbl[ip.Mbl]; ok {
					data[i] = v
				}
			}
		}
	}
	return data
}

// updateMaster issues the master default-action update through the
// persistent call and op. rmt deep-copies the data on
// install, so handing it the scratch is safe across retries and flips.
func (a *Agent) updateMaster(p *sim.Proc, data []uint64) error {
	a.masterCall.Data = data
	return a.drvDo(p, &a.flipOp)
}

// iteration executes one turn of the dialogue loop, mirroring the §6
// pseudocode.
func (a *Agent) iteration(p *sim.Proc) error {
	start := p.Now()
	a.iterDeadline = a.opts.Recovery.watchdogDeadline(start)
	a.iterRetries = 0
	a.iterDegraded = false

	// 0. If a degraded-channel abandon or a failed shadow-side write left
	// the switch's state in doubt, audit and reconcile before staging
	// anything new: the fixes rewrite shadow copies with committed data,
	// which would stomp fresh prepares, and no vv flip may happen over an
	// unconverged shadow. A resync that fails because the channel is
	// still down is itself recoverable — the flag stays set and the next
	// iteration tries again, which is what lets a partitioned agent heal
	// without a session restart.
	if a.resyncPending {
		if err := a.resync(p); err != nil {
			return err
		}
		a.resyncPending = false
	}

	// Write-ahead: log that an iteration is in flight before the first
	// driver write. A successor finding this intent (and no later
	// CommitStaged upgrade) knows at most reaction prepares landed — all
	// shadow-side, all safe to roll back.
	if err := a.journalBegin(p); err != nil {
		return err
	}

	// 1. Flip the measurement version; the old working copy becomes the
	// checkpoint the control plane may read at leisure (Fig. 9). If the
	// flip fails, the iteration is abandoned before any poll: reading
	// the still-working copy would break the snapshot isolation of §5.2.
	checkpoint := a.mv
	if a.plan.UsesMV && len(a.plan.InitTables) > 0 {
		a.masterScratch = a.masterData(a.masterScratch, a.vv, a.mv^1, false)
		if err := a.updateMaster(p, a.masterScratch); err != nil {
			return err
		}
		a.mv ^= 1
	}

	// 2. Poll and run each reaction. Parameters are polled immediately
	// before their reaction for freshness (§4.2).
	for _, rr := range a.reactions {
		if a.stopRequested() {
			return ErrStopped
		}
		if err := a.runReaction(p, rr, checkpoint); err != nil {
			a.stats.ReactionErrors++
			return err
		}
	}

	// 3. Commit staged effects serializably (§5.1). A stop requested by
	// now abandons the staged changes instead of committing them: the
	// caller asked the dialogue to cease, and rollback is always safe.
	if a.stopRequested() {
		return ErrStopped
	}
	if a.plan.UsesVV && len(a.plan.InitTables) > 0 {
		if err := a.commit(p); err != nil {
			return err
		}
		a.stats.Commits++
	}

	a.stats.Iterations++
	if a.iterDegraded {
		a.stats.Degraded++
	}
	// The iteration's prepares are now committed and mirrored (or there
	// were none); the log is obsolete, and the bodies' statics commit.
	a.staged = a.staged[:0]
	for _, rr := range a.reactions {
		rr.commitImage()
	}
	// Checkpoint the committed configuration and retire the intent.
	if err := a.journalIterationEnd(p); err != nil {
		return err
	}
	a.iterDeadline = 0
	lat := p.Now().Sub(start)
	a.stats.LastIteration = lat
	a.stats.Busy += lat
	if len(a.stats.Latencies) < a.opts.LatencySamples {
		a.stats.Latencies = append(a.stats.Latencies, lat)
	}
	return nil
}

// commit performs prepare (non-master init shadow updates), the atomic
// master flip, and the mirror/fill-shadow phase.
//
// Failure discipline: vv flips if and only if the single master update
// succeeds. A failure before the flip rolls the prepared shadow entries
// back (they were never packet-visible) and abandons the iteration. A
// failure after the flip cannot un-commit — the change is live — so the
// unfinished mirror work is left to the resync, which runs before any
// future flip.
func (a *Agent) commit(p *sim.Proc) error {
	newVV := a.vv ^ 1

	// Compute the complete post-commit image first — the non-master
	// shadow data and the master action data — so the CommitStaged
	// intent can describe every write this commit will issue before any
	// of them reaches the switch.
	if len(a.targetInit) != len(a.initData) {
		a.targetInit = make([][]uint64, len(a.initData))
	}
	changed := a.nmChanged[:0]
	for t := 1; t < len(a.plan.InitTables); t++ {
		data, hit := append(a.targetInit[t][:0], a.initData[t]...), false
		for i, ip := range a.plan.InitTables[t].Params {
			if ip.Kind != compiler.InitValue && ip.Kind != compiler.InitField {
				continue
			}
			if v, ok := a.pendingMbl[ip.Mbl]; ok {
				data[i], hit = v, true
			}
		}
		a.targetInit[t] = data
		if hit {
			changed = append(changed, t)
		}
	}
	a.nmChanged = changed
	a.targetInit[0] = a.masterData(a.targetInit[0], newVV, a.mv, true)
	newMaster := a.targetInit[0]
	if err := a.journalCommitStaged(p, a.targetInit); err != nil {
		return err
	}

	// Prepare: stage non-master init-table changes in their shadow
	// (vv^1) entries. (Malleable-table entry prepares already followed
	// each reaction's body.)
	for i, t := range changed {
		it := a.plan.InitTables[t]
		if err := a.retry.ModifyEntry(p, it.Table, a.initHandles[t][newVV], it.Action, a.targetInit[t]); err != nil {
			a.undoNonMaster(p, changed[:i], newVV)
			return err
		}
	}

	// Commit: one atomic master update flips vv and applies all pending
	// master-resident malleable changes together (§5.1.1); the master is
	// always updated last (§5.1.2).
	//
	// The flip is the one operation whose channel ambiguity cannot be
	// deferred to a later audit: if a degraded report hides a flip that
	// actually landed, the shadow copies are live and any rollback write
	// would be packet-visible mid-iteration. So a degraded flip is
	// resolved inline — read the master back (the MSL quarantine below
	// the degraded report guarantees no stale flip copy is still in
	// flight, so the read is definitive) and either proceed as committed
	// or reissue.
	for {
		err := a.updateMaster(p, newMaster)
		if err == nil {
			break
		}
		if !errors.Is(err, driver.ErrChannelDegraded) {
			a.undoNonMaster(p, changed, newVV)
			return err
		}
		flipped, rerr := a.resolveFlip(p, newVV)
		if rerr != nil {
			return rerr
		}
		if flipped {
			break
		}
		// Definitively not applied: reissue the identical flip.
	}
	// Copy rather than alias: targetInit is rebuilt by the next commit.
	a.initData[0] = append(a.initData[0][:0], newMaster...)
	oldVV := a.vv
	a.vv = newVV
	for name, v := range a.pendingMbl {
		a.mblCache[name] = v
	}
	clear(a.pendingMbl)

	// Mirror: re-apply to the now-shadow copies so a future flip is safe.
	for _, t := range changed {
		it := a.plan.InitTables[t]
		a.initData[t] = append(a.initData[t][:0], a.targetInit[t]...)
		if err := a.retry.ModifyEntry(p, it.Table, a.initHandles[t][oldVV], it.Action, a.initData[t]); err != nil {
			a.leaveToResync()
		}
	}
	a.fillShadow(p)
	return nil
}

// undoNonMaster restores already-prepared non-master shadow entries to
// their committed data after a pre-flip commit failure. If an undo
// write itself fails, the entry is left to the resync — it is in a
// shadow copy, invisible to packets, and the resync runs before any
// future flip could expose it.
func (a *Agent) undoNonMaster(p *sim.Proc, prepared []int, shadowVV uint64) {
	for _, t := range prepared {
		it := a.plan.InitTables[t]
		if err := a.retry.ModifyEntry(p, it.Table, a.initHandles[t][shadowVV], it.Action, a.initData[t]); err != nil {
			a.leaveToResync()
		}
	}
}
