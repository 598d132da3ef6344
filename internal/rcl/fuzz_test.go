package rcl

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"strconv"
	"testing"

	"repro/internal/check"
	"repro/internal/p4r"
)

// FuzzRclBody: no reaction body panics the parser, the compiler or the
// interpreter, and the step budget always ends a run. Every body that
// compiles runs twice on one frame, so statics and reused array slots
// are exercised too. Seeded with the reaction bodies of
// examples/p4r/fig1.p4r and internal/check's programs, and with every
// string literal in rcl_test.go, which holds the bodies this package's
// tests compile.
func FuzzRclBody(f *testing.F) {
	for _, body := range seedBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		prog, err := Compile(body)
		if err != nil {
			return
		}
		prog.MaxSteps = 10_000
		fr := prog.NewFrame()
		fr.BindArray("qdepths", make([]int64, 16))
		*fr.BindScalar("x") = 3
		h := newTestHost()
		h.mbls["out"], h.mbls["value_var"] = 0, 0
		h.callRet["now"] = 1
		for i := 0; i < 2; i++ {
			_ = fr.Exec(h)
		}
	})
}

func seedBodies(f *testing.F) []string {
	fig1, err := os.ReadFile("../../examples/p4r/fig1.p4r")
	if err != nil {
		f.Fatal(err)
	}
	var bodies []string
	for _, src := range []string{string(fig1), check.TwoTableSrc, check.FaultSweepSrc} {
		file, err := p4r.Parse(src)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range file.Reactions {
			bodies = append(bodies, r.Body)
		}
	}
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
	return bodies
}
