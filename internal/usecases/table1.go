package usecases

import (
	"fmt"

	"repro/internal/compiler"
)

// BaseRouterP4R is the "basic router" Table 1 measures marginal costs
// against: the same headers and a plain routing table, no malleables,
// no reactions.
const BaseRouterP4R = `
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; }
}
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;

action route_pkt(port) {
  modify_field(standard_metadata.egress_spec, port);
}
action drop_pkt() { drop(); }

table route {
  reads { ipv4.dstAddr : exact; }
  actions { route_pkt; drop_pkt; }
  default_action : drop_pkt;
  size : 64;
}

control ingress {
  apply(route);
}
`

// Table1Row is one use case's cost summary, in the paper's Table 1
// columns. Resource columns are marginal over the basic router.
type Table1Row struct {
	Name     string
	Reaction string

	MblValues int
	MblFields int
	MblTables int

	P4RLoC int
	P4LoC  int

	Stages    int
	Tables    int
	Registers int

	SRAMKB       float64
	TCAMKB       float64
	MetadataBits int
}

// useCaseSources pairs each use case with its program and the reaction
// summary the paper lists.
var useCaseSources = []struct {
	name     string
	src      string
	reaction string
}{
	{"Flow size estimation and DoS mitigation", DosP4R,
		"Attributes each poll's byte-counter growth to the sampled sender, keeps per-sender estimates in a static open-addressed table, and blocks a sender at 1 Gbps."},
	{"Route recomputation", GrayP4R,
		"Strikes a port whose window brings fewer than delta = floor(eta*Td/Ts) heartbeats; two strikes in a row move its route to the backup port."},
	{"Hash polarization mitigation", HashPolarP4R,
		"Compares MAD/mean of the per-path packet deltas with 0.5 in integers; three imbalanced windows in a row shift the ECMP hash input field."},
	{"Reinforcement Learning", RLECNP4R,
		"Epsilon-greedy Q-learning in fixed point (Q-values in a static array) over queue-depth buckets, rewarding utilization minus a queue penalty, picks the DCTCP ECN marking threshold."},
}

// cost is a compiled program's resource footprint in Table 1's units,
// read from its placement (the compiler's one resource model).
type cost struct {
	stages, tables, registers, sramBits, tcamBits, metadataBits int
}

func costOf(plan *compiler.Plan) cost {
	pl := plan.Placement
	sram, tcam := pl.Bits()
	return cost{
		stages:       pl.IngressStages + pl.EgressStages,
		tables:       len(plan.Prog.TableOrder),
		registers:    len(plan.Prog.RegisterOrder),
		sramBits:     sram,
		tcamBits:     tcam,
		metadataBits: plan.Prog.MetadataBits(),
	}
}

// Table1 compiles all four use cases and reports their marginal costs
// over the basic router.
func Table1() ([]Table1Row, error) {
	basePlan, err := compiler.CompileSource(BaseRouterP4R, compiler.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("base router: %w", err)
	}
	base := costOf(basePlan)

	var rows []Table1Row
	for _, uc := range useCaseSources {
		plan, err := compiler.CompileSource(uc.src, compiler.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", uc.name, err)
		}
		c := costOf(plan)
		mblTables := 0
		for _, ti := range plan.MblTables {
			if ti.VVCol >= 0 {
				mblTables++
			}
		}
		rows = append(rows, Table1Row{
			Name:         uc.name,
			Reaction:     uc.reaction,
			MblValues:    len(plan.MblValues),
			MblFields:    len(plan.MblFields),
			MblTables:    mblTables,
			P4RLoC:       plan.SourceLines,
			P4LoC:        plan.Prog.LineCount(),
			Stages:       c.stages - base.stages,
			Tables:       c.tables - base.tables,
			Registers:    c.registers - base.registers,
			SRAMKB:       float64(c.sramBits-base.sramBits) / 8 / 1024,
			TCAMKB:       float64(c.tcamBits-base.tcamBits) / 8 / 1024,
			MetadataBits: c.metadataBits - base.metadataBits,
		})
	}
	return rows, nil
}
