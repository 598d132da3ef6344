package rcl

// Frame is a prepared execution context for a Program: the locals and
// parameter slot arrays are sized once at construction and reused, so
// after warmup a Frame.Exec of a steady-state reaction body performs
// zero heap allocations — which is what keeps the Mantis dialogue loop
// allocation-free.
//
// The intended pattern, mirroring how the agent compiles reactions at
// prologue time:
//
//	f := prog.NewFrame()
//	depth := f.BindScalar("depth")       // once, at setup
//	f.BindArray("qdepths", qbuf)         // once; qbuf refilled per poll
//	for each iteration {
//	    *depth = polledDepth             // no map, no boxing
//	    if err := f.Exec(host); err != nil { ... }
//	}
//
// A Frame is not safe for concurrent use, and Exec must not be called
// reentrantly from a Host callback on the same Frame.
type Frame struct {
	prog *Program
	st   execState
	in   interp // embedded so Exec never heap-allocates the interpreter
}

// NewFrame returns a Frame with slot arrays sized to the compiled
// program and every parameter unbound. Parameters referenced by the
// body must be bound before Exec.
func (p *Program) NewFrame() *Frame {
	f := &Frame{prog: p}
	f.st.locals = make([]cell, p.nlocals)
	f.st.params = make([]cell, len(p.params))
	f.st.bound = make([]bool, len(p.params))
	return f
}

// BindScalar binds (or rebinds) a scalar parameter and returns a stable
// pointer to its storage; writing through the pointer before Exec is how
// per-iteration polled values reach the reaction without allocation.
// Binding a name the body never references is allowed (and inert).
func (f *Frame) BindScalar(name string) *int64 {
	slot, ok := f.prog.params[name]
	if !ok {
		// The body never reads this name; hand back real storage so the
		// caller's writes stay harmless.
		return new(int64)
	}
	c := &f.st.params[slot]
	c.isArr = false
	c.arr = nil
	f.st.bound[slot] = true
	return &c.scalar
}

// BindArray binds (or rebinds) an array parameter by reference: the
// reaction indexes arr directly, so refilling arr in place between Exec
// calls updates the parameter with no copy. Writes from the reaction
// body are visible to the caller.
func (f *Frame) BindArray(name string, arr []int64) {
	slot, ok := f.prog.params[name]
	if !ok {
		return
	}
	c := &f.st.params[slot]
	c.isArr = true
	c.arr = arr
	f.st.bound[slot] = true
}

// Exec runs the program once against host using the bound parameters.
// Steady-state cost is the compiled closure tree only: no allocation,
// no name resolution.
func (f *Frame) Exec(host Host) error {
	f.st.argbuf = f.st.argbuf[:0]
	f.in = interp{prog: f.prog, host: host, st: &f.st, max: f.prog.MaxSteps}
	if f.in.max == 0 {
		f.in.max = defaultMaxSteps
	}
	_, err := runStmts(&f.in, f.prog.code)
	f.in.host = nil // do not retain the host past the call
	return err
}
