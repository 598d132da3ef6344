package rcl_test

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/check"
	"repro/internal/fabric"
	"repro/internal/p4r"
	"repro/internal/rcl"
	"repro/internal/usecases"
)

// FuzzRclBody: no reaction body panics the parser, the compiler or the
// interpreter, and the step budget always ends a run. Every body that
// compiles runs three times on one frame, so statics and reused array
// slots are exercised too, and the statics image takes a run back: the
// second and third runs, each after a RestoreStatics to the image saved
// before the second, make the same host calls and end the same way.
// Seeded with the reaction bodies of examples/p4r/fig1.p4r and
// internal/check's programs, with every string literal in rcl_test.go,
// which holds the bodies this package's tests compile, and with the use
// cases' bodies. It is an external test because p4r imports rcl.
func FuzzRclBody(f *testing.F) {
	for _, body := range seedBodies(f) {
		f.Add(body)
	}
	// A latch, a counter and an array that the host calls report.
	f.Add(`static int n, done; static int a[4];
n = n + 1; a[n % 4] += n;
if (n >= 2 && done == 0) { t.addEntry(9, "hit", n); done = 1; }
emit("n", n, a[1] + a[2]);`)
	f.Fuzz(func(t *testing.T, body string) {
		prog, err := rcl.Compile(body)
		if err != nil {
			return
		}
		prog.MaxSteps = 10_000
		fr := prog.NewFrame()
		// A body may write its parameters, so each run binds fresh ones.
		run := func(h rcl.Host) error {
			fr.BindArray("qdepths", make([]int64, 16))
			fr.BindArray("hb_count", make([]int64, 32))
			fr.BindArray("egr_pkts", make([]int64, 32))
			fr.BindArray("total_bytes", make([]int64, 1))
			*fr.BindScalar("x") = 3
			*fr.BindScalar("ipv4_srcAddr") = 7
			return fr.Exec(h)
		}
		_ = run(anyHost{})
		prog.SaveStatics()
		var logs [2]recordHost
		for i := range logs {
			prog.RestoreStatics()
			logs[i].calls = append(logs[i].calls, fmt.Sprint("end ", run(&logs[i])))
		}
		if !slices.Equal(logs[0].calls, logs[1].calls) {
			t.Fatalf("after RestoreStatics the body ran\n%q\nthe first time it ran\n%q", logs[1].calls, logs[0].calls)
		}
	})
}

// anyHost accepts every malleable, table call and builtin, so a body
// runs as far as its own logic takes it.
type anyHost struct{}

func (anyHost) ReadMbl(string) (int64, error)                    { return 0, nil }
func (anyHost) WriteMbl(string, int64) error                     { return nil }
func (anyHost) TableOp(string, string, []rcl.Arg) (int64, error) { return 1, nil }
func (anyHost) Call(name string, _ []rcl.Arg) (int64, error)     { return 1, nil }

// recordHost answers like anyHost and writes every call into calls.
type recordHost struct{ calls []string }

func (h *recordHost) ReadMbl(name string) (int64, error) {
	h.calls = append(h.calls, "read "+name)
	return 0, nil
}

func (h *recordHost) WriteMbl(name string, v int64) error {
	h.calls = append(h.calls, fmt.Sprint("write ", name, v))
	return nil
}

func (h *recordHost) TableOp(table, method string, args []rcl.Arg) (int64, error) {
	h.calls = append(h.calls, fmt.Sprint("table ", table, method, args))
	return 1, nil
}

func (h *recordHost) Call(name string, args []rcl.Arg) (int64, error) {
	h.calls = append(h.calls, fmt.Sprint("call ", name, args))
	return 1, nil
}

func seedBodies(f *testing.F) []string {
	fig1, err := os.ReadFile("../../examples/p4r/fig1.p4r")
	if err != nil {
		f.Fatal(err)
	}
	var bodies []string
	addBodies := func(srcs ...string) {
		for _, src := range srcs {
			file, err := p4r.Parse(src)
			if err != nil {
				f.Fatal(err)
			}
			for _, r := range file.Reactions {
				bodies = append(bodies, r.Body)
			}
		}
	}
	addBodies(string(fig1), check.TwoTableSrc, check.FaultSweepSrc)
	tests, err := goparser.ParseFile(gotoken.NewFileSet(), "rcl_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(tests, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				bodies = append(bodies, s)
			}
		}
		return true
	})
	// Appended last, so the earlier seeds keep their numbers.
	addBodies(usecases.DosP4R, usecases.GrayP4R, usecases.HashPolarP4R, fabric.LeafP4R)
	return bodies
}
