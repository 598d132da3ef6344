package usecases

import (
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rl"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// RLECNP4R is use case #4's program: the DCTCP ECN marking threshold
// is a malleable value compared against queue depth in the egress
// pipeline; queue depth and a byte counter are polled as the RL state.
const RLECNP4R = `
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; }
}
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;

register q_sample { width : 32; instance_count : 1; }
register tx_bytes { width : 64; instance_count : 1; }

malleable value ecn_thresh { width : 16; init : 64; }

action route_pkt(port) {
  modify_field(standard_metadata.egress_spec, port);
}
action drop_pkt() { drop(); }
action mark_ecn() {
  modify_field(ipv4.ecn, 1);
}
action sample_q() {
  register_write(q_sample, 0, standard_metadata.enq_qdepth);
  register_increment(tx_bytes, 0, standard_metadata.packet_length);
}

table route {
  reads { ipv4.dstAddr : exact; }
  actions { route_pkt; drop_pkt; }
  default_action : drop_pkt;
  size : 64;
}
table marker {
  actions { mark_ecn; }
  default_action : mark_ecn;
  size : 1;
}
table sampler {
  actions { sample_q; }
  default_action : sample_q;
  size : 1;
}

reaction rl_react(reg q_sample, reg tx_bytes) {
  // Implemented natively: off-policy Q-learning over the threshold.
}

control ingress {
  apply(route);
}
control egress {
  if (standard_metadata.enq_qdepth > ${ecn_thresh}) {
    apply(marker);
  }
  apply(sampler);
}
`

// RLTuner is the native reaction body of use case #4: ε-greedy
// Q-learning over discretized queue depth, with actions that move the
// ECN threshold and a reward of throughput minus a queue penalty
// (maximizing "the sum of the utilization ... with the inverse of
// queue length").
type RLTuner struct {
	Learner *rl.QLearner
	// Thresholds is the action space: candidate ECN thresholds.
	Thresholds []uint64
	// Beta weights the queue-length penalty against utilization.
	Beta float64
	// LinkBps normalizes the throughput term.
	LinkBps float64

	lastTx    uint64
	lastTime  sim.Time
	lastState int
	lastAct   int
	primed    bool

	// RewardHistory records the per-step rewards (for convergence
	// checks); ThresholdHistory the chosen thresholds.
	RewardHistory    []float64
	ThresholdHistory []uint64
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

// NewRLTuner builds the tuner.
func NewRLTuner(linkBps float64, seed int64) (*RLTuner, error) {
	thresholds := []uint64{2, 4, 8, 16, 32, 64, 128}
	cfg := rl.DefaultConfig(8, len(thresholds))
	cfg.Seed = seed
	l, err := rl.New(cfg)
	if err != nil {
		return nil, err
	}
	return &RLTuner{Learner: l, Thresholds: thresholds, Beta: 0.5, LinkBps: linkBps}, nil
}

// React is the reaction body (registered for "rl_react").
func (r *RLTuner) React(ctx *core.Ctx) error {
	q := ctx.Reg("q_sample")[0]
	tx := ctx.Reg("tx_bytes")[0]
	now := ctx.Now()
	state := depthState(q)
	if !r.primed {
		r.primed = true
		r.lastTx, r.lastTime, r.lastState = tx, now, state
		r.lastAct = r.Learner.Act(state)
		return ctx.SetMbl("ecn_thresh", r.Thresholds[r.lastAct])
	}
	elapsed := now.Sub(r.lastTime).Seconds()
	if elapsed <= 0 {
		return nil
	}
	util := float64((tx-r.lastTx)*8) / elapsed / r.LinkBps
	if util > 1 {
		util = 1
	}
	// Reward: utilization plus inverse queue pressure.
	reward := util - r.Beta*float64(depthState(q))/8.0
	r.RewardHistory = append(r.RewardHistory, reward)
	r.Learner.Update(r.lastState, r.lastAct, reward, state)

	act := r.Learner.Act(state)
	r.lastState, r.lastAct = state, act
	r.lastTx, r.lastTime = tx, now
	r.ThresholdHistory = append(r.ThresholdHistory, r.Thresholds[act])
	return ctx.SetMbl("ecn_thresh", r.Thresholds[act])
}

// RLRig is a ready-to-run use case #4 deployment.
type RLRig struct {
	Sim   *sim.Simulator
	Sw    *rmt.Switch
	Drv   *driver.Driver
	Plan  *compiler.Plan
	Agent *core.Agent
	Net   *netsim.Network
	Tuner *RLTuner
}

// BuildRL compiles and wires use case #4 with the given dialogue
// pacing and bottleneck rate on port 1.
func BuildRL(seed int64, td time.Duration, bottleneckBps float64) (*RLRig, error) {
	plan, err := compiler.CompileSource(RLECNP4R, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(seed)
	cfg := rmt.DefaultConfig()
	cfg.QueueCapacity = 256
	sw, err := rmt.New(s, plan.Prog, cfg)
	if err != nil {
		return nil, err
	}
	sw.SetPortBandwidth(1, bottleneckBps)
	drv := driver.New(s, sw, driver.DefaultCostModel())
	tuner, err := NewRLTuner(bottleneckBps, seed)
	if err != nil {
		return nil, err
	}
	agent := core.NewAgent(s, drv, plan, core.Options{
		Pacing: td,
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			// dst → port, in ascending address order: a slice, not a map, so
			// entry handles repeat from run to run.
			for _, r := range [][2]uint64{{1, 0}, {2, 1}} {
				if _, err := drv.AddEntry(p, "route", rmt.Entry{
					Keys: []rmt.KeySpec{rmt.ExactKey(r[0])}, Action: "route_pkt", Data: []uint64{r[1]},
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err := agent.RegisterNativeReaction("rl_react", tuner.React); err != nil {
		return nil, err
	}
	net := netsim.New(s, sw, 25e9, 5*time.Microsecond)
	return &RLRig{Sim: s, Sw: sw, Drv: drv, Plan: plan, Agent: agent, Net: net, Tuner: tuner}, nil
}

// RLResult summarizes an RL tuning run.
type RLResult struct {
	// EarlyReward and LateReward are mean rewards over the first and
	// last quarter of the run: learning should not degrade them.
	EarlyReward float64
	LateReward  float64
	// Updates counts TD updates.
	Updates uint64
	// FinalGreedyThreshold is the learned threshold at the most common
	// late state.
	FinalGreedyThreshold uint64
	// DeliveredBytes is the DCTCP flow's goodput.
	DeliveredBytes uint64
}

// RunRL drives a DCTCP flow through the tuned bottleneck and reports
// the learning outcome.
func RunRL(seed int64, duration time.Duration) (*RLResult, error) {
	rig, err := BuildRL(seed, 50*time.Microsecond, 1e9)
	if err != nil {
		return nil, err
	}
	a := rig.Net.AddHost(0, 1)
	b := rig.Net.AddHost(1, 2)
	wire := func(h *netsim.Host) {
		h.Rx = func(pkt *packet.Packet) {
			if f, ok := pkt.Payload.(*netsim.TCPFlow); ok {
				f.HandlePacket(pkt, h)
			}
		}
	}
	wire(a)
	wire(b)
	tcfg := netsim.DefaultTCPConfig()
	tcfg.DCTCP = true
	flow := netsim.NewTCPFlow(a, FM, 2, tcfg)
	rig.Agent.Start()
	flow.Start()
	rig.Sim.RunFor(duration)
	rig.Agent.Stop()
	rig.Sim.RunFor(time.Millisecond)
	if err := rig.Agent.Err(); err != nil {
		return nil, err
	}
	res := &RLResult{
		Updates:        rig.Tuner.Learner.Updates,
		DeliveredBytes: flow.DeliveredBytes,
	}
	hist := rig.Tuner.RewardHistory
	if len(hist) >= 8 {
		q := len(hist) / 4
		var early, late float64
		for _, r := range hist[:q] {
			early += r
		}
		for _, r := range hist[len(hist)-q:] {
			late += r
		}
		res.EarlyReward = early / float64(q)
		res.LateReward = late / float64(q)
	}
	// Greedy threshold for a mid-pressure state.
	res.FinalGreedyThreshold = rig.Tuner.Thresholds[rig.Tuner.Learner.Best(depthState(16))]
	return res, nil
}
