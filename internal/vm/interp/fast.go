package interp

import (
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/vm/value"
)

// FastEnabled selects the host-fast execution substrate: the pre-compiled
// interpreter path below plus the fast-mode caches elsewhere in the VM
// (builtin world-data memoization, scheduler yield reuse). It exists so the
// legacy stepper remains selectable — tests assert both paths produce
// bit-for-bit identical virtual times, and the host benchmark (commsetbench
// -host) measures the speedup by flipping it.
//
// The flag is read at function entry, not per instruction, and the
// campaigns only flip it between runs, so there is no torn state.
var FastEnabled = true

// fastOp executes one straight-line instruction. One closure per
// instruction, pre-bound to its operands at compile time, so the hot loop
// has no opcode re-dispatch.
type fastOp func(t *Thread, regs, locals []value.Value) error

// segment is a maximal straight-line run charged as a single cost add.
// Segments end at call instructions (the only observation points a
// scheduler interceptor can see) and at the block terminator, so the
// thread's accumulated cost at every observation point is identical to the
// legacy per-instruction stepper.
type segment struct {
	cost int64
	ops  []fastOp
	call *ir.Instr // trailing OpCall, or nil for the terminator segment
}

// blockCode is one compiled basic block.
type blockCode struct {
	segs []segment
	term *ir.Instr // OpBr, OpCondBr, or OpRet; cost folded into last segment
}

// fnCode is one compiled function.
type fnCode struct {
	f       *ir.Func
	blocks  []blockCode
	zero    []value.Value // frame template: typed local zeros then zero regs
	nlocals int
	pool    sync.Pool // *[]value.Value frames, len == len(zero)
}

// progCode is the compiled form of one immutable *ir.Program. The program
// owns it (ir.Program.Compiled), so it is built once, shared read-only by
// every thread and campaign cell that runs the program, and freed with
// the program. The IR is never structurally edited after the pipeline
// returns.
type progCode struct {
	// funcs and fns are indexed by callee index (ir.Instr.Callee): the
	// user functions, in ir.Program.Order, and their compiled code — nil
	// where a function must run on the legacy stepper (malformed blocks;
	// the legacy path owns the diagnostics for those).
	funcs []*ir.Func
	fns   []*fnCode
	// index maps callee names to indices, for entry by name (CallByName)
	// from outside the program.
	index map[string]int
}

// codeOf returns the program's compiled form, building it on first use.
func codeOf(prog *ir.Program) *progCode {
	return prog.Compiled(compileProg).(*progCode)
}

func compileProg(prog *ir.Program) any {
	if len(prog.Callees) < len(prog.Order) {
		// Unresolved IR would silently dispatch every call to Order[0].
		panic("interp: program names are not resolved (call ir.Program.ResolveNames)")
	}
	gslot := make(map[string]int, len(prog.Globals))
	for i, g := range prog.Globals {
		gslot[g.Name] = i
	}
	pc := &progCode{
		funcs: make([]*ir.Func, len(prog.Order)),
		fns:   make([]*fnCode, len(prog.Order)),
		index: make(map[string]int, len(prog.Callees)),
	}
	for i, name := range prog.Callees {
		pc.index[name] = i
	}
	for i, name := range prog.Order {
		f := prog.Funcs[name]
		pc.funcs[i] = f
		pc.fns[i] = compileFunc(f, gslot)
	}
	return pc
}

// compileFunc pre-compiles one function, or returns nil when any block is
// not a well-formed straight-line run ending in a terminator.
func compileFunc(f *ir.Func, gslot map[string]int) *fnCode {
	fc := &fnCode{
		f:       f,
		blocks:  make([]blockCode, len(f.Blocks)),
		nlocals: len(f.Locals),
	}
	fc.zero = make([]value.Value, len(f.Locals)+f.NumRegs)
	for i := range f.Locals {
		fc.zero[i] = value.Zero(f.Locals[i].Type)
	}
	frameLen := len(fc.zero)
	fc.pool.New = func() any {
		b := make([]value.Value, frameLen)
		return &b
	}

	for bi, blk := range f.Blocks {
		if blk.ID != bi || blk.Terminator() == nil {
			return nil
		}
		bc := &fc.blocks[bi]
		bc.term = blk.Instrs[len(blk.Instrs)-1]
		var seg segment
		flush := func(call *ir.Instr, extra int64) {
			seg.cost = (int64(len(seg.ops)) + extra) * CostPerInstr
			seg.call = call
			bc.segs = append(bc.segs, seg)
			seg = segment{}
		}
		for _, in := range blk.Instrs[:len(blk.Instrs)-1] {
			if in.IsTerminator() {
				return nil // terminator mid-block: legacy path diagnoses it
			}
			if in.Op == ir.OpCall {
				flush(in, 1)
				continue
			}
			op := compileOp(in, gslot)
			if op == nil {
				return nil
			}
			seg.ops = append(seg.ops, op)
		}
		flush(nil, 1) // trailing segment carries the terminator's cost
	}
	return fc
}

// compileOp builds the closure for one straight-line instruction.
func compileOp(in *ir.Instr, gslot map[string]int) fastOp {
	switch in.Op {
	case ir.OpConst:
		dst, v := in.Dst, in.Val
		return func(t *Thread, regs, locals []value.Value) error {
			regs[dst] = v
			return nil
		}
	case ir.OpLoadLocal:
		dst, slot := in.Dst, in.Slot
		return func(t *Thread, regs, locals []value.Value) error {
			regs[dst] = locals[slot]
			return nil
		}
	case ir.OpStoreLocal:
		slot, a := in.Slot, in.A
		return func(t *Thread, regs, locals []value.Value) error {
			locals[slot] = regs[a]
			return nil
		}
	case ir.OpLoadGlobal:
		gs, ok := gslot[in.Name]
		if !ok {
			return nil
		}
		dst, name := in.Dst, in.Name
		return func(t *Thread, regs, locals []value.Value) error {
			if t.Tracer != nil {
				t.Tracer.TraceGlobal(t.ID, name, false)
			}
			regs[dst] = t.Env.Globals.vals[gs]
			return nil
		}
	case ir.OpStoreGlobal:
		gs, ok := gslot[in.Name]
		if !ok {
			return nil
		}
		a, name := in.A, in.Name
		return func(t *Thread, regs, locals []value.Value) error {
			t.HeapWrites++
			if t.Tracer != nil {
				t.Tracer.TraceGlobal(t.ID, name, true)
			}
			t.Env.Globals.vals[gs] = regs[a]
			return nil
		}
	case ir.OpBin:
		fn := binOps[in.Oper]
		dst, a, b, pos := in.Dst, in.A, in.B, in.Pos
		if fn == nil {
			op := in.BinOp
			return func(t *Thread, regs, locals []value.Value) error {
				return fmt.Errorf("%s: %v", pos, invalidBin(op, regs[a]))
			}
		}
		return func(t *Thread, regs, locals []value.Value) error {
			v, e := fn(regs[a], regs[b])
			if e != nil {
				return fmt.Errorf("%s: %v", pos, e)
			}
			regs[dst] = v
			return nil
		}
	case ir.OpUn:
		fn := unOps[in.Oper]
		dst, a, pos := in.Dst, in.A, in.Pos
		if fn == nil {
			op := in.BinOp
			return func(t *Thread, regs, locals []value.Value) error {
				return fmt.Errorf("%s: %v", pos, invalidUn(op, regs[a]))
			}
		}
		return func(t *Thread, regs, locals []value.Value) error {
			v, e := fn(regs[a])
			if e != nil {
				return fmt.Errorf("%s: %v", pos, e)
			}
			regs[dst] = v
			return nil
		}
	}
	return nil
}

// execFast runs a pre-compiled function. Cost accounting matches the
// legacy stepper at every observation point: a segment's full cost (its
// instructions plus the trailing call or terminator) is charged before the
// segment body, and the only places other components read the thread's
// cost — call interceptors, scheduler yields, the final return — sit at
// segment boundaries.
func (t *Thread) execFast(fc *fnCode, args []value.Value) ([]value.Value, error) {
	if t.depth >= maxDepth {
		return nil, fmt.Errorf("interp: call depth exceeded in %s", fc.f.Name)
	}
	if len(args) != fc.f.Params {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d", fc.f.Name, fc.f.Params, len(args))
	}
	t.depth++
	bp := fc.pool.Get().(*[]value.Value)
	buf := *bp
	copy(buf, fc.zero)
	locals := buf[:fc.nlocals:fc.nlocals]
	regs := buf[fc.nlocals:]
	copy(locals, args)
	defer func() {
		fc.pool.Put(bp)
		t.depth--
	}()

	bi := 0
	for {
		bc := &fc.blocks[bi]
		for si := range bc.segs {
			s := &bc.segs[si]
			t.Cost += s.cost
			for _, op := range s.ops {
				if err := op(t, regs, locals); err != nil {
					return nil, err
				}
			}
			if s.call != nil {
				if err := t.execCall(s.call, regs, locals); err != nil {
					return nil, err
				}
			}
		}
		switch term := bc.term; term.Op {
		case ir.OpBr:
			bi = term.Targets[0]
		case ir.OpCondBr:
			if regs[term.A].AsBool() {
				bi = term.Targets[0]
			} else {
				bi = term.Targets[1]
			}
		default: // OpRet
			out := make([]value.Value, len(term.Args))
			for i, r := range term.Args {
				out[i] = regs[r]
			}
			return out, nil
		}
	}
}
