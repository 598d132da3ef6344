package rcl

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// testHost is a scriptable Host for interpreter tests.
type testHost struct {
	mbls     map[string]int64
	tableOps []string
	calls    []string
	callRet  map[string]int64
}

func newTestHost() *testHost {
	return &testHost{mbls: map[string]int64{}, callRet: map[string]int64{}}
}

func (h *testHost) ReadMbl(name string) (int64, error) {
	v, ok := h.mbls[name]
	if !ok {
		return 0, fmt.Errorf("unknown malleable %s", name)
	}
	return v, nil
}

func (h *testHost) WriteMbl(name string, v int64) error {
	if _, ok := h.mbls[name]; !ok {
		return fmt.Errorf("unknown malleable %s", name)
	}
	h.mbls[name] = v
	return nil
}

func (h *testHost) TableOp(table, method string, args []Arg) (int64, error) {
	h.tableOps = append(h.tableOps, fmt.Sprintf("%s.%s/%d", table, method, len(args)))
	return 42, nil
}

func (h *testHost) Call(name string, args []Arg) (int64, error) {
	h.calls = append(h.calls, name)
	if v, ok := h.callRet[name]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown builtin %s", name)
}

// run compiles and executes src once, returning the host for inspection.
func run(t *testing.T, src string, params map[string]any) *testHost {
	t.Helper()
	h := newTestHost()
	h.mbls["out"] = 0
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := prog.Exec(h, params); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	return h
}

func TestFig1ReactionBody(t *testing.T) {
	// The exact reaction body from Figure 1 of the paper (with the loop
	// body braced), finding the port with maximum queue depth.
	src := `
	uint16_t current_max = 0;
	uint16_t max_port = 0;
	for (int i = 1; i <= 10; ++i) {
		if (qdepths[i] > current_max) {
			current_max = qdepths[i]; max_port = i;
		}
	}
	${value_var} = max_port;
	`
	h := newTestHost()
	h.mbls["value_var"] = 0
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	qdepths := []int64{0, 5, 2, 99, 1, 0, 0, 7, 0, 3, 4}
	if err := prog.Exec(h, map[string]any{"qdepths": qdepths}); err != nil {
		t.Fatal(err)
	}
	if h.mbls["value_var"] != 3 {
		t.Fatalf("value_var = %d, want 3 (port of max depth 99)", h.mbls["value_var"])
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]int64{
		"1 + 2 * 3":          7,
		"(1 + 2) * 3":        9,
		"10 / 3":             3,
		"10 % 3":             1,
		"7 - 10":             -3,
		"1 << 4":             16,
		"256 >> 4":           16,
		"0xFF & 0x0F":        0x0F,
		"0xF0 | 0x0F":        0xFF,
		"0xFF ^ 0x0F":        0xF0,
		"~0":                 -1,
		"-5":                 -5,
		"!0":                 1,
		"!7":                 0,
		"3 < 4":              1,
		"4 <= 4":             1,
		"5 > 6":              0,
		"5 >= 5":             1,
		"5 == 5":             1,
		"5 != 5":             0,
		"1 && 2":             1,
		"1 && 0":             0,
		"0 || 3":             1,
		"0 || 0":             0,
		"1 ? 10 : 20":        10,
		"0 ? 10 : 20":        20,
		"min(3, 9)":          3,
		"max(3, 9)":          9,
		"abs(0 - 4)":         4,
		"abs(4)":             4,
		"2 + 3 == 5 ? 1 : 0": 1,
		"1 << 2 << 3":        32,
	}
	for src, want := range cases {
		h := run(t, fmt.Sprintf("${out} = %s;", src), nil)
		if h.mbls["out"] != want {
			t.Errorf("%s = %d, want %d", src, h.mbls["out"], want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// If && short-circuits, the division by zero on the right never runs.
	h := run(t, "int x = 0; ${out} = (x != 0) && (10 / x > 1);", nil)
	if h.mbls["out"] != 0 {
		t.Fatal("short-circuit && failed")
	}
	h = run(t, "int x = 0; ${out} = (x == 0) || (10 / x > 1);", nil)
	if h.mbls["out"] != 1 {
		t.Fatal("short-circuit || failed")
	}
}

func TestDivisionByZero(t *testing.T) {
	prog, err := Compile("int x = 1 / 0;")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Exec(newTestHost(), nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
	prog, _ = Compile("int x = 1 % 0;")
	if err := prog.Exec(newTestHost(), nil); err == nil {
		t.Fatal("modulo by zero not caught")
	}
}

func TestCompoundAssignment(t *testing.T) {
	src := `
	int x = 10;
	x += 5; x -= 3; x *= 2; x /= 4; x %= 4; x <<= 3; x |= 1; x &= 0xF; x ^= 2;
	${out} = x;
	`
	// 10+5=15, -3=12, *2=24, /4=6, %4=2, <<3=16, |1=17, &0xF=1, ^2=3
	h := run(t, src, nil)
	if h.mbls["out"] != 3 {
		t.Fatalf("out = %d, want 3", h.mbls["out"])
	}
}

func TestIncrementDecrement(t *testing.T) {
	src := `
	int x = 5;
	int a = x++;
	int b = ++x;
	int c = x--;
	int d = --x;
	${out} = a * 1000 + b * 100 + c * 10 + d;
	`
	// a=5 (x=6), b=7 (x=7), c=7 (x=6), d=5 (x=5)
	h := run(t, src, nil)
	if h.mbls["out"] != 5775 {
		t.Fatalf("out = %d, want 5775", h.mbls["out"])
	}
}

func TestWidthMasking(t *testing.T) {
	h := run(t, "uint8_t x = 300; ${out} = x;", nil)
	if h.mbls["out"] != 300&0xFF {
		t.Fatalf("uint8_t masking: %d", h.mbls["out"])
	}
	h = run(t, "uint16_t x = 0; x = x - 1; ${out} = x;", nil)
	if h.mbls["out"] != 0xFFFF {
		t.Fatalf("uint16_t underflow: %d, want 65535", h.mbls["out"])
	}
	h = run(t, "int x = 0; x = x - 1; ${out} = x;", nil)
	if h.mbls["out"] != -1 {
		t.Fatalf("signed int: %d, want -1", h.mbls["out"])
	}
}

func TestWhileLoopAndBreakContinue(t *testing.T) {
	src := `
	int sum = 0;
	int i = 0;
	while (1) {
		i++;
		if (i > 10) { break; }
		if (i % 2 == 0) { continue; }
		sum += i;
	}
	${out} = sum;
	`
	h := run(t, src, nil) // 1+3+5+7+9 = 25
	if h.mbls["out"] != 25 {
		t.Fatalf("out = %d, want 25", h.mbls["out"])
	}
}

func TestForLoopVariants(t *testing.T) {
	h := run(t, "int s = 0; for (int i = 0; i < 5; i++) { s += i; } ${out} = s;", nil)
	if h.mbls["out"] != 10 {
		t.Fatalf("decl-init for: %d", h.mbls["out"])
	}
	h = run(t, "int s = 0; int i = 0; for (i = 10; i > 0; i -= 2) s++; ${out} = s;", nil)
	if h.mbls["out"] != 5 {
		t.Fatalf("expr-init unbraced for: %d", h.mbls["out"])
	}
	h = run(t, "int s = 0; for (;;) { s++; if (s == 3) break; } ${out} = s;", nil)
	if h.mbls["out"] != 3 {
		t.Fatalf("empty-clause for: %d", h.mbls["out"])
	}
}

func TestNestedLoopBreak(t *testing.T) {
	src := `
	int count = 0;
	for (int i = 0; i < 3; i++) {
		for (int j = 0; j < 10; j++) {
			if (j == 2) break;
			count++;
		}
	}
	${out} = count;
	`
	h := run(t, src, nil)
	if h.mbls["out"] != 6 {
		t.Fatalf("out = %d, want 6 (break only exits inner loop)", h.mbls["out"])
	}
}

func TestReturnStopsExecution(t *testing.T) {
	h := run(t, "${out} = 1; return; ${out} = 2;", nil)
	if h.mbls["out"] != 1 {
		t.Fatalf("out = %d, return did not stop execution", h.mbls["out"])
	}
}

func TestLocalArrays(t *testing.T) {
	src := `
	uint32_t hist[8];
	for (int i = 0; i < 8; i++) { hist[i] = i * i; }
	int s = 0;
	for (int i = 0; i < len(hist); i++) { s += hist[i]; }
	${out} = s;
	`
	h := run(t, src, nil) // 0+1+4+9+16+25+36+49 = 140
	if h.mbls["out"] != 140 {
		t.Fatalf("out = %d, want 140", h.mbls["out"])
	}
}

func TestArrayOutOfRange(t *testing.T) {
	prog, err := Compile("int a[4]; a[4] = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Exec(newTestHost(), nil); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
	prog, _ = Compile("int a[4]; int x = a[0-1];")
	if err := prog.Exec(newTestHost(), nil); err == nil {
		t.Fatal("negative index accepted")
	}
}

// TestArraySizeBounded: an array longer than maxArraySize, local or
// static, is a syntax error at its line, not a frame the first
// execution cannot allocate.
func TestArraySizeBounded(t *testing.T) {
	for src, at := range map[string]string{"\nint big[99999999999999];": "line 2:9:", "\nstatic int big[4097];": "line 2:16:"} {
		_, err := Compile(src)
		if err == nil || !strings.HasPrefix(err.Error(), at+" error[S001]: array size") {
			t.Errorf("%q: err = %v, want an S001 on the array size", src, err)
		}
	}
	run(t, "int a[4096]; a[4095] = 1; ${out} = a[4095];", nil)
}

func TestStaticsPersistAcrossInvocations(t *testing.T) {
	// The paper's "stateful dialogue": statics retain values across
	// iterations of the reaction loop.
	prog, err := Compile("static int total = 0; total += delta; ${out} = total;")
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHost()
	h.mbls["out"] = 0
	for i := 1; i <= 4; i++ {
		if err := prog.Exec(h, map[string]any{"delta": int64(10)}); err != nil {
			t.Fatal(err)
		}
		if h.mbls["out"] != int64(10*i) {
			t.Fatalf("iteration %d: out = %d, want %d", i, h.mbls["out"], 10*i)
		}
	}
}

func TestParamsBinding(t *testing.T) {
	src := "${out} = scalar + arr[1] + u64 + goInt;"
	h := newTestHost()
	h.mbls["out"] = 0
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Exec(h, map[string]any{
		"scalar": int64(1),
		"arr":    []int64{10, 20},
		"u64":    uint64(300),
		"goInt":  4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.mbls["out"] != 4321 {
		t.Fatalf("out = %d, want 4321", h.mbls["out"])
	}
	// []uint64 parameters are converted.
	prog2, _ := Compile("${out} = a[0];")
	if err := prog2.Exec(h, map[string]any{"a": []uint64{7}}); err != nil {
		t.Fatal(err)
	}
	if h.mbls["out"] != 7 {
		t.Fatal("[]uint64 binding failed")
	}
	// Unsupported param type errors.
	if err := prog2.Exec(h, map[string]any{"a": "nope"}); err == nil {
		t.Fatal("string param accepted")
	}
}

func TestTableOps(t *testing.T) {
	src := `
	int h = tbl.addEntry(5, "my_action", 7);
	tbl.modEntry(h, "my_action", 8);
	tbl.delEntry(h);
	${out} = h;
	`
	h := run(t, src, nil)
	if h.mbls["out"] != 42 {
		t.Fatalf("handle = %d", h.mbls["out"])
	}
	want := []string{"tbl.addEntry/3", "tbl.modEntry/3", "tbl.delEntry/1"}
	if len(h.tableOps) != 3 {
		t.Fatalf("ops = %v", h.tableOps)
	}
	for i := range want {
		if h.tableOps[i] != want[i] {
			t.Fatalf("ops = %v, want %v", h.tableOps, want)
		}
	}
}

func TestHostCalls(t *testing.T) {
	h := newTestHost()
	h.mbls["out"] = 0
	h.callRet["now"] = 123456
	prog, err := Compile("${out} = now();")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Exec(h, nil); err != nil {
		t.Fatal(err)
	}
	if h.mbls["out"] != 123456 {
		t.Fatalf("now() = %d", h.mbls["out"])
	}
	prog2, _ := Compile("int x = mystery();")
	if err := prog2.Exec(h, nil); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

func TestUnknownMalleable(t *testing.T) {
	prog, _ := Compile("${ghost} = 1;")
	if err := prog.Exec(newTestHost(), nil); err == nil {
		t.Fatal("write to unknown malleable accepted")
	}
	prog2, _ := Compile("int x = ${ghost};")
	if err := prog2.Exec(newTestHost(), nil); err == nil {
		t.Fatal("read of unknown malleable accepted")
	}
}

func TestUndefinedVariable(t *testing.T) {
	prog, _ := Compile("int x = y + 1;")
	if err := prog.Exec(newTestHost(), nil); err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Fatalf("err = %v", err)
	}
}

func TestRedeclaration(t *testing.T) {
	if prog, err := Compile("int x = 1; int x = 2;"); prog != nil || err == nil || !strings.Contains(err.Error(), "redeclaration") {
		t.Fatalf("Compile = %v, %v; want a redeclaration error", prog, err)
	}
	// Shadowing in an inner scope is fine (C semantics).
	h := run(t, "int x = 1; if (1) { int x = 2; } ${out} = x;", nil)
	if h.mbls["out"] != 1 {
		t.Fatal("inner scope leaked")
	}
}

func TestScopingBlockLocals(t *testing.T) {
	prog, _ := Compile("if (1) { int y = 5; } ${out} = y;")
	h := newTestHost()
	h.mbls["out"] = 0
	if err := prog.Exec(h, nil); err == nil {
		t.Fatal("block-local variable visible outside block")
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	prog, err := Compile("while (1) { }")
	if err != nil {
		t.Fatal(err)
	}
	prog.MaxSteps = 1000
	if err := prog.Exec(newTestHost(), nil); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"int = 5;",
		"x ++ ++;",
		"if (x {)",
		"int a[0];",
		"int a[2] = 5;",
		"5 = x;",
		"for (int i = 0 i < 5; i++) {}",
		"int x = \"str\" + 1;",
		"@",
		"/* unterminated",
		"\"unterminated",
		"${}",
		"while (1) { break",
	}
	for _, src := range bad {
		if prog, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) = %v, nil; want an error", src, prog)
		}
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
	int r = 0;
	if (x == 1) { r = 10; }
	else if (x == 2) { r = 20; }
	else { r = 30; }
	${out} = r;
	`
	for x, want := range map[int64]int64{1: 10, 2: 20, 3: 30} {
		h := run(t, src, map[string]any{"x": x})
		if h.mbls["out"] != want {
			t.Errorf("x=%d: out = %d, want %d", x, h.mbls["out"], want)
		}
	}
}

func TestStringArgsToHost(t *testing.T) {
	h := newTestHost()
	h.callRet["log"] = 0
	prog, err := Compile(`log("hello", 42);`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Exec(h, nil); err != nil {
		t.Fatal(err)
	}
	if len(h.calls) != 1 || h.calls[0] != "log" {
		t.Fatalf("calls = %v", h.calls)
	}
}

// Property: the interpreter agrees with Go on a randomly parameterized
// arithmetic identity.
func TestPropertyArithmeticAgreesWithGo(t *testing.T) {
	prog, err := Compile("${out} = (a + b) * 3 - (a - b) / 2 + (a ^ b) % 7;")
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b int32) bool {
		h := newTestHost()
		h.mbls["out"] = 0
		ai, bi := int64(a), int64(b)
		if err := prog.Exec(h, map[string]any{"a": ai, "b": bi}); err != nil {
			return false
		}
		want := (ai+bi)*3 - (ai-bi)/2 + (ai^bi)%7
		return h.mbls["out"] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a summation loop equals n*(n+1)/2 for any small n.
func TestPropertySumLoop(t *testing.T) {
	prog, err := Compile("int s = 0; for (int i = 1; i <= n; i++) { s += i; } ${out} = s;")
	if err != nil {
		t.Fatal(err)
	}
	f := func(n8 uint8) bool {
		n := int64(n8)
		h := newTestHost()
		h.mbls["out"] = 0
		if err := prog.Exec(h, map[string]any{"n": n}); err != nil {
			return false
		}
		return h.mbls["out"] == n*(n+1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Exec runs the reaction once. params binds polled reaction parameters
// by name: values must be int64 (scalar fields/malleables) or []int64
// (register slices). Parameter arrays are bound by reference.
//
// Exec builds a throwaway Frame per call: the tests' convenience. The
// agent prepares a Frame once and calls Frame.Exec.
func (p *Program) Exec(host Host, params map[string]any) error {
	f := p.NewFrame()
	for name, v := range params {
		switch val := v.(type) {
		case int64:
			*f.BindScalar(name) = val
		case uint64:
			*f.BindScalar(name) = int64(val)
		case int:
			*f.BindScalar(name) = int64(val)
		case []int64:
			f.BindArray(name, val)
		case []uint64:
			arr := make([]int64, len(val))
			for i, x := range val {
				arr[i] = int64(x)
			}
			f.BindArray(name, arr)
		default:
			return fmt.Errorf("rcl: parameter %s has unsupported type %T", name, v)
		}
	}
	return f.Exec(host)
}
