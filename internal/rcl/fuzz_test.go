package rcl_test

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
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
// compiles runs twice on one frame, so statics and reused array slots
// are exercised too. Seeded with the reaction bodies of
// examples/p4r/fig1.p4r and internal/check's programs, with every
// string literal in rcl_test.go, which holds the bodies this package's
// tests compile, and with the use cases' bodies. It is an external test
// because p4r imports rcl.
func FuzzRclBody(f *testing.F) {
	for _, body := range seedBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		prog, err := rcl.Compile(body)
		if err != nil {
			return
		}
		prog.MaxSteps = 10_000
		fr := prog.NewFrame()
		fr.BindArray("qdepths", make([]int64, 16))
		fr.BindArray("hb_count", make([]int64, 32))
		fr.BindArray("egr_pkts", make([]int64, 32))
		fr.BindArray("total_bytes", make([]int64, 1))
		*fr.BindScalar("x") = 3
		*fr.BindScalar("ipv4_srcAddr") = 7
		for i := 0; i < 2; i++ {
			_ = fr.Exec(anyHost{})
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
