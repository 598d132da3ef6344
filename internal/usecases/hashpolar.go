package usecases

import (
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// HashPolarP4R is use case #3's program: the ECMP hash input is a
// malleable field (per the paper, the 5-tuple inputs become malleable
// references that a reaction can shift). The carrier-loading
// optimization of §4.1 keeps the field list from exploding. Egress
// packet counts per port feed the MAD imbalance detector.
const HashPolarP4R = `
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; }
}
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;
header_type meta_t { fields { ecmp : 16; } }
metadata meta_t meta;

register egr_pkts { width : 32; instance_count : 32; }

malleable field hash_in {
  width : 32; init : ipv4.dstAddr;
  alts { ipv4.dstAddr, ipv4.srcAddr }
}

field_list ecmp_fl { ${hash_in}; ipv4.protocol; }
field_list_calculation ecmp_hash {
  input { ecmp_fl; }
  algorithm : crc16;
  output_width : 16;
}

action pick_path() {
  modify_field_with_hash_based_offset(meta.ecmp, 0, ecmp_hash, 4);
}
action set_egress(port) {
  modify_field(standard_metadata.egress_spec, port);
}
action count_egr() {
  register_increment(egr_pkts, standard_metadata.egress_port, 1);
}

table ecmp_pick {
  actions { pick_path; }
  default_action : pick_path;
  size : 1;
}
table ecmp_sel {
  reads { meta.ecmp : exact; }
  actions { set_egress; }
  size : 8;
}
table egr_counter {
  actions { count_egr; }
  default_action : count_egr;
  size : 1;
}

reaction polar_react(reg egr_pkts) {
  // Implemented natively: MAD-based imbalance detection + input shift.
}

control ingress {
  apply(ecmp_pick);
  apply(ecmp_sel);
}
control egress {
  apply(egr_counter);
}
`

// polarPaths lists the ECMP egress ports the imbalance detector watches.
var polarPaths = [...]int{1, 2, 3, 4}

// A shift triggers when MAD/mean of the per-port deltas exceeds
// polarMADRatio for polarPersist consecutive windows.
const (
	polarMADRatio = 0.5
	polarPersist  = 3
)

// PolarDetector is the native reaction body of use case #3.
type PolarDetector struct {
	lastCounts []uint64
	strikes    int
	altCount   int
	currentAlt uint64

	// ShiftedAt records hash reconfiguration times.
	ShiftedAt []sim.Time
	// MADHistory records the observed imbalance metric per window.
	MADHistory []float64
}

// NewPolarDetector builds the detector. altCount is the malleable
// field's alternative count.
func NewPolarDetector(altCount int) *PolarDetector {
	return &PolarDetector{lastCounts: make([]uint64, 32), altCount: altCount}
}

// React is the reaction body (registered for "polar_react").
func (d *PolarDetector) React(ctx *core.Ctx) error {
	counts := ctx.Reg("egr_pkts")
	deltas := make([]float64, len(polarPaths))
	total := 0.0
	for i, port := range polarPaths {
		deltas[i] = float64(counts[port] - d.lastCounts[port])
		d.lastCounts[port] = counts[port]
		total += deltas[i]
	}
	if total == 0 {
		return nil
	}
	// Deviation of port loads from their median, normalized by the mean
	// load. The mean-absolute variant is used because polarization onto
	// a minority of paths is an outlier pattern that the
	// median-of-deviations MAD is (by design) blind to.
	mad := stats.MeanAbsDevFromMedian(deltas)
	mean := total / float64(len(deltas))
	ratio := mad / mean
	d.MADHistory = append(d.MADHistory, ratio)
	if ratio <= polarMADRatio {
		d.strikes = 0
		return nil
	}
	d.strikes++
	if d.strikes < polarPersist {
		return nil
	}
	// Persistent imbalance: shift the hash input to the next alternative
	// (wrapping), per §8.3.3.
	d.strikes = 0
	d.currentAlt = (d.currentAlt + 1) % uint64(d.altCount)
	if err := ctx.SetMbl("hash_in", d.currentAlt); err != nil {
		return err
	}
	d.ShiftedAt = append(d.ShiftedAt, ctx.Now())
	return nil
}

// PolarRig is a ready-to-run use case #3 deployment.
type PolarRig struct {
	Sim      *sim.Simulator
	Sw       *rmt.Switch
	Drv      *driver.Driver
	Plan     *compiler.Plan
	Agent    *core.Agent
	Detector *PolarDetector
}

// BuildPolar compiles and wires use case #3: ECMP over polarPaths with a
// malleable hash input, dialogue period td.
func BuildPolar(seed int64, td time.Duration) (*PolarRig, error) {
	plan, err := compiler.CompileSource(HashPolarP4R, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	det := NewPolarDetector(len(plan.MblFields["hash_in"].Alts))
	agent := core.NewAgent(s, drv, plan, core.Options{
		Pacing: td,
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			for i, port := range polarPaths {
				if _, err := drv.AddEntry(p, "ecmp_sel", rmt.Entry{
					Keys: []rmt.KeySpec{rmt.ExactKey(uint64(i))}, Action: "set_egress", Data: []uint64{uint64(port)},
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err := agent.RegisterNativeReaction("polar_react", det.React); err != nil {
		return nil, err
	}
	return &PolarRig{Sim: s, Sw: sw, Drv: drv, Plan: plan, Agent: agent, Detector: det}, nil
}

// PolarResult summarizes a hash-polarization run.
type PolarResult struct {
	// Shifted reports whether the reaction reconfigured the hash.
	Shifted bool
	// ShiftAt is the first reconfiguration time.
	ShiftAt sim.Time
	// MADBefore/MADAfter are the mean imbalance ratios before and after
	// the first shift.
	MADBefore float64
	MADAfter  float64
	// PortShares are final per-path traffic shares.
	PortShares []float64
}

// RunPolar drives a polarizing workload (every flow shares the initial
// hash-input value) through the ECMP group and reports whether the
// reaction de-polarized it.
func RunPolar(seed int64, td time.Duration, duration time.Duration) (*PolarResult, error) {
	rig, err := BuildPolar(seed, td)
	if err != nil {
		return nil, err
	}
	schema := rig.Plan.Prog.Schema
	rng := rig.Sim.Rand()
	// Polarizing workload: a single destination (the initial hash
	// input), many sources (the alternative input).
	tick := rig.Sim.Every(300*time.Nanosecond, func() {
		pkt := schema.New()
		pkt.Size = 256
		pkt.SetName("ipv4.dstAddr", 0xC0A80001)
		pkt.SetName("ipv4.srcAddr", uint64(0x0A000000+rng.Intn(4096)))
		pkt.SetName("ipv4.protocol", netsim.ProtoTCP)
		rig.Sw.Inject(0, pkt)
	})
	rig.Agent.Start()
	rig.Sim.RunFor(duration)
	tick.Stop()
	rig.Agent.Stop()
	rig.Sim.RunFor(time.Millisecond)
	if err := rig.Agent.Err(); err != nil {
		return nil, err
	}

	res := &PolarResult{}
	det := rig.Detector
	if len(det.ShiftedAt) > 0 {
		res.Shifted = true
		res.ShiftAt = det.ShiftedAt[0]
	}
	// Split MAD history around the first shift: the first polarPersist
	// windows (which triggered it) are the polarized "before" phase.
	var before, after []float64
	shiftIdx := len(det.MADHistory)
	if res.Shifted {
		shiftIdx = polarPersist
	}
	for i, r := range det.MADHistory {
		if i < shiftIdx {
			before = append(before, r)
		} else {
			after = append(after, r)
		}
	}
	res.MADBefore = stats.Mean(before)
	res.MADAfter = stats.Mean(after)
	var totalPkts float64
	counts := make([]float64, len(polarPaths))
	for i, port := range polarPaths {
		v, _ := rig.Sw.RegRead("egr_pkts", uint64(port))
		counts[i] = float64(v)
		totalPkts += counts[i]
	}
	for _, c := range counts {
		res.PortShares = append(res.PortShares, c/totalPkts)
	}
	return res, nil
}
