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
// packet counts per port feed the reaction's imbalance detector: when
// MAD/mean of the per-path deltas exceeds 0.5 for three consecutive
// windows, it shifts the hash input.
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
  // The ECMP group's paths leave on ports 1-4. A window's imbalance is
  // the mean absolute deviation of the per-path packet deltas from their
  // median, over their mean. On doubled deltas the median of four is the
  // sum of the middle two, so MAD/mean > 1/2 iff dev > total below.
  static int last[5];
  static int strikes = 0;
  static int alt = 0;
  int d[4];
  int sorted[4];
  int total = 0;
  for (int i = 0; i < 4; i++) {
    d[i] = egr_pkts[i + 1] - last[i + 1];
    last[i + 1] = egr_pkts[i + 1];
    total += d[i];
    int j = i;
    for (; j > 0 && sorted[j - 1] > d[i]; j--) sorted[j] = sorted[j - 1];
    sorted[j] = d[i];
  }
  if (total == 0) return;
  int dev = 0;
  for (int i = 0; i < 4; i++) dev += abs(2 * d[i] - sorted[1] - sorted[2]);
  emit("polar.window", dev, total);
  if (dev <= total) {
    strikes = 0;
    return;
  }
  // Three imbalanced windows in a row: shift the hash input to its
  // other alternative.
  strikes++;
  if (strikes < 3) return;
  strikes = 0;
  alt = (alt + 1) % 2;
  ${hash_in} = alt;
  emit("polar.shift", alt, 0);
}

control ingress {
  apply(ecmp_pick);
  apply(ecmp_sel);
}
control egress {
  apply(egr_counter);
}
`

// polarPaths lists the ECMP egress ports (the reaction's ports 1-4).
var polarPaths = [...]int{1, 2, 3, 4}

// PolarRig is a ready-to-run use case #3 deployment.
type PolarRig struct {
	Sim   *sim.Simulator
	Sw    *rmt.Switch
	Drv   *driver.Driver
	Plan  *compiler.Plan
	Agent *core.Agent
	// Events is every event the reaction emitted, in order.
	Events []core.Event
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
	rig := &PolarRig{Sim: s, Sw: sw, Drv: drv, Plan: plan}
	rig.Agent = core.NewAgent(s, drv, plan, core.Options{
		Pacing:    td,
		EventSink: func(ev core.Event) { rig.Events = append(rig.Events, ev) },
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
	return rig, nil
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
	return rig.RunPolar(duration)
}

// RunPolar drives the rig's workload for duration.
func (rig *PolarRig) RunPolar(duration time.Duration) (*PolarResult, error) {
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
	var ratios []float64
	for _, ev := range rig.Events {
		switch {
		case ev.Kind == EventPolarShift && !res.Shifted:
			res.Shifted, res.ShiftAt = true, ev.At
		case ev.Kind == EventPolarWindow:
			// MAD/mean = (Key/8) / (Val/4): both operands are exact, so
			// this is the ratio a float computation over the deltas gives.
			ratios = append(ratios, float64(ev.Key)/8/(float64(ev.Val)/4))
		}
	}
	// After a shift, the first three windows (the imbalance that
	// triggered it) are the polarized "before" phase.
	before, after := ratios, []float64(nil)
	if res.Shifted {
		before, after = ratios[:3], ratios[3:]
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
