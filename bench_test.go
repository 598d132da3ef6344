// Package mantis_test holds the four microbenchmarks nothing else
// measures: the compiler end to end, the interpreted reaction body, the
// workload generator and the Fig. 14 estimators. The paper's tables and
// figures are regenerated and byte-compared by cmd/experiments; the
// gated hot-path suite is internal/perf's BenchmarkHotPaths.
package mantis_test

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/compiler"
	"repro/internal/rcl"
	"repro/internal/workload"
)

// ---- Substrate hot paths ----

const benchSrc = `
header_type h_t { fields { tag : 16; port : 8; } }
header h_t hdr;
register qdepths { width : 32; instance_count : 16; }
malleable value v { width : 16; init : 0; }
action observe() {
  register_write(qdepths, hdr.port, standard_metadata.packet_length);
  modify_field(hdr.tag, ${v});
  modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { observe; } default_action : observe; size : 1; }
reaction r(reg qdepths) {
  uint16_t m = 0;
  for (int i = 0; i < 16; ++i) { if (qdepths[i] > m) { m = qdepths[i]; } }
  ${v} = m;
}
control ingress { apply(t); }
`

// BenchmarkCompile measures the Mantis compiler end to end.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.CompileSource(benchSrc, compiler.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRclReaction measures the interpreted reaction body alone.
func BenchmarkRclReaction(b *testing.B) {
	b.ReportAllocs()
	prog, err := rcl.Compile(`
	uint16_t m = 0;
	for (int i = 0; i < 16; ++i) { if (q[i] > m) { m = q[i]; } }
	${v} = m;
	`)
	if err != nil {
		b.Fatal(err)
	}
	host := benchHost{}
	f := prog.NewFrame()
	f.BindArray("q", make([]int64, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Exec(host); err != nil {
			b.Fatal(err)
		}
	}
}

type benchHost struct{}

func (benchHost) ReadMbl(string) (int64, error)                   { return 0, nil }
func (benchHost) WriteMbl(string, int64) error                    { return nil }
func (benchHost) TableOp(_, _ string, _ []rcl.Arg) (int64, error) { return 0, nil }
func (benchHost) Call(string, []rcl.Arg) (int64, error)           { return 0, nil }

// BenchmarkTraceGeneration measures the workload generator at the
// scaled Fig. 14 size.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	cfg := workload.DefaultTraceConfig()
	for i := 0; i < b.N; i++ {
		tr := workload.Generate(cfg)
		if len(tr.Packets) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkEstimators measures the Fig. 14 estimators' per-packet cost.
func BenchmarkEstimators(b *testing.B) {
	b.ReportAllocs()
	tr := workload.Generate(workload.TraceConfig{
		Flows: 1000, TotalPackets: 100000, Duration: 100 * time.Millisecond,
		ZipfS: 1.1, MinPktSize: 64, MaxPktSize: 1500, Sources: 128, Seed: 1,
	})
	b.Run("mantis", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.RunEstimator(tr, baseline.NewMantisSampler(5*time.Microsecond))
		}
	})
	b.Run("sflow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.RunEstimator(tr, baseline.NewSFlow(30000, 1))
		}
	})
	b.Run("countmin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.RunEstimator(tr, baseline.NewCountMin(2, 8192, 1))
		}
	})
}
