// Package mantis_test benchmarks the Mantis reproduction: one benchmark
// per evaluation table/figure (regenerating its data), plus
// microbenchmarks of the compiler and the reaction interpreter. The
// gated hot-path suite is internal/perf's BenchmarkHotPaths.
package mantis_test

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/rcl"
	"repro/internal/usecases"
	"repro/internal/workload"
)

// ---- One benchmark per table/figure ----

func BenchmarkFig10aMeasurement(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bUpdate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11DutyCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12LegacyContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13TCAMUsage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig13a(32); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunFig13b(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Inventory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := usecases.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14Estimation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig14(0.01, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15DosMitigation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := usecases.RunFig15(usecases.DefaultFig15Config(), int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16GrayFailure(b *testing.B) {
	b.ReportAllocs()
	ports := []int{2, 3, 4, 5}
	for i := 0; i < b.N; i++ {
		res, err := usecases.RunFig16(int64(i+1), ports, 3, 300*time.Microsecond, 50*time.Microsecond, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Detected {
			b.Fatal("failure not detected")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblations(); err != nil {
			b.Fatal(err)
		}
	}
}

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
