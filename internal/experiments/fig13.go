package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compiler"
	"repro/internal/report"
)

// Fig13Row is one point of the malleable-field TCAM-usage study: a
// K-bit malleable field with A alternatives, used by tblWriteX (5-tuple
// match, writes ${X}) and tblReadX (5-tuple + ${X} match, reads ${X}).
type Fig13Row struct {
	Alts      int
	Width     int
	Occupancy int
	// WriteTCAMBits / ReadTCAMBits are the generated tables' TCAM usage.
	WriteTCAMBits int
	ReadTCAMBits  int
}

// Fig13Result is both Fig. 13 sweeps.
type Fig13Result struct {
	A []Fig13Row `json:"a"`
	B []Fig13Row `json:"b"`
}

// fig13Src generates the benchmark program for a given width and alt
// count: the malleable field's alternatives are K-bit header fields.
func fig13Src(width, alts int) string {
	var b strings.Builder
	b.WriteString("header_type h_t {\n  fields {\n")
	b.WriteString("    srcAddr : 32; dstAddr : 32; srcPort : 16; dstPort : 16; proto : 8;\n")
	for i := 0; i < alts; i++ {
		fmt.Fprintf(&b, "    alt%d : %d;\n", i, width)
	}
	fmt.Fprintf(&b, "    out : %d;\n", width)
	b.WriteString("  }\n}\nheader h_t h;\n")

	fmt.Fprintf(&b, "malleable field X {\n  width : %d; init : h.alt0;\n  alts { ", width)
	for i := 0; i < alts; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "h.alt%d", i)
	}
	b.WriteString(" }\n}\n")

	b.WriteString(`
action writeX(v) { modify_field(${X}, v); }
action readX() { modify_field(h.out, ${X}); }

malleable table tblWriteX {
  reads {
    h.srcAddr : ternary;
    h.dstAddr : ternary;
    h.srcPort : ternary;
    h.dstPort : ternary;
    h.proto : ternary;
  }
  actions { writeX; }
  size : 1024;
}
malleable table tblReadX {
  reads {
    h.srcAddr : ternary;
    h.dstAddr : ternary;
    h.srcPort : ternary;
    h.dstPort : ternary;
    h.proto : ternary;
    ${X} : exact;
  }
  actions { readX; }
  size : 1024;
}
control ingress { apply(tblWriteX); apply(tblReadX); }
`)
	return b.String()
}

// RunFig13 sweeps the alternative count A at K=32 for both occupancies
// (Fig. 13a: tblWriteX grows linearly in A, tblReadX asymptotically
// quadratically), then the field width K at A=4 and occupancy 1024
// (Fig. 13b: tblReadX usage is proportional to K, tblWriteX constant).
func RunFig13() (*Fig13Result, error) {
	res := &Fig13Result{}
	for _, alts := range []int{2, 3, 4, 5, 6, 7, 8} {
		for _, occ := range []int{512, 1024} {
			row, err := fig13Point(32, alts, occ)
			if err != nil {
				return nil, err
			}
			res.A = append(res.A, *row)
		}
	}
	for _, width := range []int{8, 16, 32, 48, 64} {
		row, err := fig13Point(width, 4, 1024)
		if err != nil {
			return nil, err
		}
		res.B = append(res.B, *row)
	}
	return res, nil
}

func fig13Point(width, alts, occupancy int) (*Fig13Row, error) {
	plan, err := compiler.CompileSource(fig13Src(width, alts), compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Occupancy is user entries; the generated tables hold
	// occupancy x A x 2 (alts x versions) concrete entries.
	gen := occupancy * alts * 2
	prog := plan.Prog
	return &Fig13Row{
		Alts: alts, Width: width, Occupancy: occupancy,
		WriteTCAMBits: prog.FootprintOf(prog.Tables["tblWriteX"], gen).TCAMBits,
		ReadTCAMBits:  prog.FootprintOf(prog.Tables["tblReadX"], gen).TCAMBits,
	}, nil
}

// Tables is one table per sweep; Fig. 13a's note is the growth of both
// tables from the fewest to the most alternatives at occupancy 1024.
func (r *Fig13Result) Tables() []report.Table {
	sweep := func(title string, rows []Fig13Row) report.Table {
		t := report.Table{Title: title, Columns: []string{"alts", "width", "occupancy", "tblWriteX (Kb)", "tblReadX (Kb)"}}
		for _, r := range rows {
			t.Rows = append(t.Rows, report.Row(r.Alts, r.Width, r.Occupancy,
				fmt.Sprintf("%.0f", float64(r.WriteTCAMBits)/1024), fmt.Sprintf("%.0f", float64(r.ReadTCAMBits)/1024)))
		}
		return t
	}
	a := sweep("Fig 13a — TCAM usage vs alternatives (K=32)", r.A)
	var lo, hi Fig13Row // occupancy 1024 at the fewest and the most alternatives
	for _, p := range r.A {
		if p.Occupancy == 1024 && (lo.Alts == 0 || p.Alts < lo.Alts) {
			lo = p
		}
		if p.Occupancy == 1024 && p.Alts > hi.Alts {
			hi = p
		}
	}
	a.Notes = []string{fmt.Sprintf("A=%d→%d at occupancy 1024: tblWriteX grows %.2fx, tblReadX %.2fx",
		lo.Alts, hi.Alts, float64(hi.WriteTCAMBits)/float64(lo.WriteTCAMBits),
		float64(hi.ReadTCAMBits)/float64(lo.ReadTCAMBits))}
	return []report.Table{a, sweep("Fig 13b — TCAM usage vs field width (A=4, occupancy 1024)", r.B)}
}
