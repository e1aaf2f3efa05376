// Package interp executes COMMSET IR.
//
// The interpreter is deliberately small and deterministic. It is used three
// ways:
//
//  1. as the reference sequential executor (baseline timings, output
//     validation),
//  2. as the profiler that weights PDG nodes for the pipeline-balancing
//     heuristics of the DSWP family (paper Section 4.5), and
//  3. as the per-logical-thread execution engine inside the discrete-event
//     multicore simulator, where an Interceptor wraps commutative-member
//     calls with synchronization and virtual-time bookkeeping.
//
// Every instruction and builtin charges virtual cost units to the executing
// Thread; the simulator turns those into virtual time.
package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm/value"
)

// CostPerInstr is the virtual cost charged for one IR instruction.
const CostPerInstr = 1

// BuiltinFn executes a substrate builtin: it returns the result value and
// the virtual cost of the operation.
type BuiltinFn func(args []value.Value) (value.Value, int64, error)

// Heap holds global variable storage. The discrete-event scheduler
// serializes thread execution, so no locking is needed.
//
// Storage is a dense slice indexed by slot; slots are assigned in program
// declaration order (so compiled code resolves a global name to its slot
// once, at compile time, and indexes the slice directly). The named
// Get/Set/Snapshot API is preserved for snapshots, tracing, and tests.
type Heap struct {
	vals  []value.Value
	names []string
	idx   map[string]int
}

// NewHeap initializes globals from the program's declarations. Slot i holds
// prog.Globals[i], which is the contract compiled code relies on.
func NewHeap(prog *ir.Program) *Heap {
	h := &Heap{
		vals:  make([]value.Value, len(prog.Globals)),
		names: make([]string, len(prog.Globals)),
		idx:   make(map[string]int, len(prog.Globals)),
	}
	for i, g := range prog.Globals {
		h.vals[i] = g.Init
		h.names[i] = g.Name
		h.idx[g.Name] = i
	}
	return h
}

// Get reads a global.
func (h *Heap) Get(name string) value.Value {
	if i, ok := h.idx[name]; ok {
		return h.vals[i]
	}
	return value.Value{}
}

// Set writes a global, appending a fresh slot for a name the program did
// not declare (tests do this; compiled code never references such slots).
func (h *Heap) Set(name string, v value.Value) {
	if i, ok := h.idx[name]; ok {
		h.vals[i] = v
		return
	}
	h.idx[name] = len(h.vals)
	h.names = append(h.names, name)
	h.vals = append(h.vals, v)
}

// Snapshot copies the globals (used by STM validation and tests).
func (h *Heap) Snapshot() map[string]value.Value {
	out := make(map[string]value.Value, len(h.vals))
	for i, name := range h.names {
		out[name] = h.vals[i]
	}
	return out
}

// Range calls fn for every global in slot order without allocating.
func (h *Heap) Range(fn func(name string, v value.Value)) {
	for i, name := range h.names {
		fn(name, h.vals[i])
	}
}

// Env bundles the immutable program with the mutable shared state.
type Env struct {
	Prog     *ir.Program
	Globals  *Heap
	Builtins map[string]BuiltinFn

	code *progCode
	// builtinAt holds the builtins the program calls, by callee index
	// (nil for user functions and for names Builtins lacks). NewEnv
	// resolves it from Builtins once; calls never hash names.
	builtinAt []BuiltinFn
}

// NewEnv creates an execution environment for prog.
func NewEnv(prog *ir.Program, builtins map[string]BuiltinFn) *Env {
	code := codeOf(prog)
	at := make([]BuiltinFn, len(prog.Callees))
	for i := len(code.funcs); i < len(at); i++ {
		at[i] = builtins[prog.Callees[i]]
	}
	return &Env{Prog: prog, Globals: NewHeap(prog), Builtins: builtins, code: code, builtinAt: at}
}

// Profile accumulates per-instruction virtual cost for one function,
// attributing callee time to the call instruction.
type Profile struct {
	Func  string
	Cost  []int64
	Total int64

	fn *ir.Func
}

// NewProfile prepares a profile for f.
func NewProfile(f *ir.Func) *Profile {
	return &Profile{Func: f.Name, Cost: make([]int64, f.NumInstrs()), fn: f}
}

// Interceptor wraps a call instruction's execution. invoke performs the
// actual call (charging its cost to the thread); the interceptor may charge
// additional cost or block the thread in virtual time around it. args are
// the concrete argument values the call was issued with.
type Interceptor func(t *Thread, in *ir.Instr, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error)

// Tracer observes memory-relevant events as they execute: global
// loads/stores and builtin invocations (with concrete arguments). The
// sanitizer's shadow-cell engine hangs off it. Tracing charges no cost.
type Tracer interface {
	TraceGlobal(tid int, name string, write bool)
	TraceBuiltin(tid int, name string, args []value.Value)
}

// Thread is one logical execution context.
type Thread struct {
	Env  *Env
	Cost int64 // accumulated virtual cost units

	// HeapWrites counts global stores performed by this thread. The
	// resilient executor uses it to tell whether a failed loop iteration
	// externalized state (and therefore cannot be re-executed).
	HeapWrites int

	// ID identifies the logical thread inside the simulator (0 for the
	// sequential reference executor).
	ID int

	// Interceptor, when set, wraps every OpCall.
	Interceptor Interceptor

	// Tracer, when set, observes global accesses and builtin calls.
	Tracer Tracer

	// Profile, when set, accumulates per-instruction cost for the function
	// it was made for.
	Profile *Profile

	// Host is the embedding executor's state for this thread, opaque to
	// the interpreter: ops an executor compiles itself reach it here.
	Host any

	// depth guards against runaway recursion in user programs.
	depth int

	// scratch is a stack arena for call-argument and result slices:
	// execCall carves each call's arguments here (and callBuiltin and
	// exec the callee's results) and pops them once the call's results
	// are consumed, so nested calls reuse one growing backing array
	// instead of allocating per call. Sound because nothing retains such
	// a slice past the call: builtins read their arguments, interceptors
	// pass them through, every caller copies results into registers
	// before its bracket pops, and the sanitizer copies what it records.
	// brackets counts the active Mark/Release pairs — results only go to
	// the arena when a bracket is there to pop them.
	scratch  []value.Value
	brackets int

	// invokeFn is the one reusable invoke closure handed to the
	// interceptor; it reads the current call from
	// curIn/curArgs, which execCallArgs saves and restores around nested
	// calls (so it stays correct across interceptor-level retries too).
	invokeFn func() ([]value.Value, error)
	curIn    *ir.Instr
	curArgs  []value.Value
}

// ScratchMark opens an arena bracket and returns the position to
// pop back to; paired with ScratchRelease by every caller that carves.
func (t *Thread) ScratchMark() int {
	t.brackets++
	return len(t.scratch)
}

// ScratchRelease closes an arena bracket, popping back to mark.
func (t *Thread) ScratchRelease(mark int) {
	t.brackets--
	t.scratch = t.scratch[:mark]
}

// ScratchSlice carves an n-element slice from the arena,
// capacity-clamped so callee carves can never alias it.
func (t *Thread) ScratchSlice(n int) []value.Value {
	m := len(t.scratch)
	t.scratch = append(t.scratch, make([]value.Value, n)...)
	return t.scratch[m : m+n : m+n]
}

// maxDepth bounds user-program recursion.
const maxDepth = 10000

// NewThread creates a thread over env.
func NewThread(env *Env) *Thread { return &Thread{Env: env} }

// RunMain executes the program's main function.
func (t *Thread) RunMain() error {
	_, err := t.CallByName("main", nil)
	return err
}

// CallByName invokes a user function or builtin by name: the entry point
// for callers outside the program (main, the sanitizer oracle). Calls
// inside the program dispatch by callee index (Call).
func (t *Thread) CallByName(name string, args []value.Value) ([]value.Value, error) {
	if i, ok := t.Env.code.index[name]; ok {
		return t.call(i, args)
	}
	if b := t.Env.Builtins[name]; b != nil {
		return t.callBuiltin(name, b, args)
	}
	return nil, fmt.Errorf("interp: undefined function %s", name)
}

// Call invokes the callee of call instruction in by its resolved index
// (ir.Instr.Callee).
func (t *Thread) Call(in *ir.Instr, args []value.Value) ([]value.Value, error) {
	return t.call(in.Callee, args)
}

// call invokes callee index i: a user function below len(funcs), a
// builtin above.
func (t *Thread) call(i int, args []value.Value) ([]value.Value, error) {
	pc := t.Env.code
	if i < len(pc.funcs) {
		return t.exec(pc.fns[i], args)
	}
	if b := t.Env.builtinAt[i]; b != nil {
		return t.callBuiltin(t.Env.Prog.Callees[i], b, args)
	}
	return nil, fmt.Errorf("interp: undefined function %s", t.Env.Prog.Callees[i])
}

// callBuiltin runs one builtin and charges its cost.
func (t *Thread) callBuiltin(name string, b BuiltinFn, args []value.Value) ([]value.Value, error) {
	if t.Tracer != nil {
		t.Tracer.TraceBuiltin(t.ID, name, args)
	}
	v, cost, err := b(args)
	t.Cost += cost
	if err != nil {
		return nil, err
	}
	out := t.results(1)
	out[0] = v
	return out, nil
}

// results returns a call's n-element result slice: carved from the
// arena when a bracket is there to pop it, heap-allocated otherwise.
func (t *Thread) results(n int) []value.Value {
	if t.brackets > 0 {
		return t.ScratchSlice(n)
	}
	return make([]value.Value, n)
}

// execCall runs one call instruction, carving its argument slice from
// the scratch arena.
func (t *Thread) execCall(in *ir.Instr, regs, locals []value.Value) error {
	mark := t.ScratchMark()
	args := t.ScratchSlice(len(in.Args))
	for i, r := range in.Args {
		args[i] = regs[r]
	}
	err := t.execCallArgs(in, regs, locals, args)
	t.ScratchRelease(mark)
	return err
}

// execCallArgs finishes a call once its argument slice is built; every
// result is consumed (copied into regs/locals) before it returns, which is
// what lets execCall pop the argument arena afterwards.
func (t *Thread) execCallArgs(in *ir.Instr, regs, locals, args []value.Value) error {
	var rets []value.Value
	var err error
	if t.Interceptor == nil {
		rets, err = t.call(in.Callee, args)
	} else {
		if t.invokeFn == nil {
			t.invokeFn = func() ([]value.Value, error) { return t.call(t.curIn.Callee, t.curArgs) }
		}
		savedIn, savedArgs := t.curIn, t.curArgs
		t.curIn, t.curArgs = in, args
		rets, err = t.Interceptor(t, in, args, t.invokeFn)
		t.curIn, t.curArgs = savedIn, savedArgs
	}
	if err != nil {
		return err
	}
	if in.Dst >= 0 {
		if len(rets) == 0 {
			return fmt.Errorf("%s: call %s returned no value", in.Pos, in.Name)
		}
		regs[in.Dst] = rets[0]
	}
	if len(in.OutSlots) > 0 {
		if len(rets) != len(in.OutSlots) {
			return fmt.Errorf("%s: region %s returned %d values, caller expects %d",
				in.Pos, in.Name, len(rets), len(in.OutSlots))
		}
		for i, slot := range in.OutSlots {
			locals[slot] = rets[i]
		}
	}
	return nil
}
