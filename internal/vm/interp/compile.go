package interp

import (
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/vm/value"
)

// Op executes one straight-line instruction: one closure per instruction,
// pre-bound to its operands at compile time, so the hot loop has no opcode
// re-dispatch.
type Op func(t *Thread, regs, locals []value.Value) error

// CallFn runs one call instruction of compiled code on its frame.
type CallFn func(t *Thread, in *ir.Instr, regs, locals []value.Value) error

// Span selects the code to compile: the instructions of one function
// reachable from an entry instruction while control stays inside the span.
type Span struct {
	Block, Index int // the entry instruction
	// In reports whether instruction in of block b belongs to the span
	// (nil: the whole function). Control leaves the span on reaching an
	// instruction outside it.
	In func(b int, in *ir.Instr) bool
	// Op, when set, receives the interpreter's op for each straight-line
	// instruction and returns the op to run: that op, a replacement, or a
	// wrapper.
	Op func(in *ir.Instr, op Op) Op
	// Call, when set, runs the span's call instructions in place of the
	// interpreter's call path.
	Call CallFn
}

// Code is a compiled span: pieces — straight-line runs of segments from
// one entry point to an exit — linked by their exits. Piece 0 is the
// entry. Code is immutable and shared by every thread that runs it.
type Code struct {
	pieces []piece
	call   CallFn
}

// segment is a maximal straight-line run charged as a single cost add.
// Segments end at call instructions, terminators and span exits; every
// place other components read a thread's cost — call interceptors,
// scheduler yields, returns — sits at a segment boundary, so each sees
// the total that charging every instruction as it executes would give.
type segment struct {
	cost int64
	ops  []Op
	call *ir.Instr // trailing OpCall, or nil
	// ids are the instruction IDs of ops, then of the trailing call or
	// terminator: the profiler's per-instruction attribution.
	ids []int
}

// piece ends in an OpRet (ret), an OpCondBr on register cond choosing
// succ[0] (true) or succ[1], or otherwise continues on succ[0].
type piece struct {
	segs []segment
	ret  *ir.Instr
	cond int
	succ [2]edge
}

// edge continues into another piece, or (piece -1) leaves the span into
// block blk — or fails with err, a malformation diagnosed at compile time.
type edge struct {
	piece int
	blk   int
	err   error
}

// Stop reports how a run of compiled code ended: at an OpRet (Ret), or by
// leaving the span into block Next.
type Stop struct {
	Ret  *ir.Instr
	Next int
}

// fnCode is one compiled function.
type fnCode struct {
	f       *ir.Func
	code    *Code
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
	// user functions, in ir.Program.Order, and their compiled code.
	funcs []*ir.Func
	fns   []*fnCode
	// index maps callee names to indices, for entry by name (CallByName)
	// from outside the program.
	index map[string]int
	// gslot maps declared global names to heap slots (NewHeap's order).
	gslot map[string]int
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
	pc := &progCode{
		funcs: make([]*ir.Func, len(prog.Order)),
		fns:   make([]*fnCode, len(prog.Order)),
		index: make(map[string]int, len(prog.Callees)),
		gslot: make(map[string]int, len(prog.Globals)),
	}
	for i, g := range prog.Globals {
		pc.gslot[g.Name] = i
	}
	for i, name := range prog.Callees {
		pc.index[name] = i
	}
	for i, name := range prog.Order {
		f := prog.Funcs[name]
		fc := &fnCode{f: f, code: compileSpan(f, Span{}, pc.gslot), nlocals: len(f.Locals)}
		fc.zero = make([]value.Value, len(f.Locals)+f.NumRegs)
		for i := range f.Locals {
			fc.zero[i] = value.Zero(f.Locals[i].Type)
		}
		frameLen := len(fc.zero)
		fc.pool.New = func() any {
			b := make([]value.Value, frameLen)
			return &b
		}
		pc.funcs[i], pc.fns[i] = f, fc
	}
	return pc
}

// Compile compiles span sp of function f of prog.
func Compile(prog *ir.Program, f *ir.Func, sp Span) *Code {
	return compileSpan(f, sp, codeOf(prog).gslot)
}

// compileSpan compiles one span. Malformed IR is diagnosed here — a block
// that falls through without a terminator, a branch to a block that does
// not exist — and recorded on the edge that reaches it, so running into
// it returns the error instead of panicking. A terminator mid-block ends
// its block, as it always did: the instructions after it are unreachable.
func compileSpan(f *ir.Func, sp Span, gslot map[string]int) *Code {
	c := &Code{call: sp.Call}
	in := sp.In
	if in == nil {
		in = func(int, *ir.Instr) bool { return true }
	}
	opOf := func(ins *ir.Instr) Op {
		op := compileOp(ins, gslot)
		if sp.Op != nil {
			op = sp.Op(ins, op)
		}
		return op
	}
	at := map[[2]int]int{} // (block, index) → piece
	var pieceAt func(b, i int) int
	edgeTo := func(from, b int) edge {
		if b < 0 || b >= len(f.Blocks) {
			return edge{piece: -1, err: fmt.Errorf("interp: block b%d of %s branches to missing block b%d", from, f.Name, b)}
		}
		if blk := f.Blocks[b]; len(blk.Instrs) > 0 && !in(b, blk.Instrs[0]) {
			return edge{piece: -1, blk: b}
		}
		return edge{piece: pieceAt(b, 0)}
	}
	pieceAt = func(b, i int) int {
		key := [2]int{b, i}
		if pi, ok := at[key]; ok {
			return pi
		}
		pi := len(c.pieces)
		at[key] = pi
		c.pieces = append(c.pieces, piece{})
		p := piece{cond: -1}
		var seg segment
		flush := func(last *ir.Instr) {
			if last != nil {
				seg.ids = append(seg.ids, last.ID)
			}
			if seg.cost = int64(len(seg.ids)) * CostPerInstr; seg.cost > 0 {
				p.segs = append(p.segs, seg)
			}
			seg = segment{}
		}
		blk := f.Blocks[b]
	walk:
		for j := i; ; j++ {
			if j == len(blk.Instrs) {
				flush(nil)
				p.succ[0] = edge{piece: -1, err: fmt.Errorf("interp: block b%d of %s fell through without terminator", blk.ID, f.Name)}
				break
			}
			ins := blk.Instrs[j]
			if !in(b, ins) {
				flush(nil)
				p.succ[0] = edge{piece: -1, blk: b}
				break
			}
			switch ins.Op {
			case ir.OpCall:
				seg.call = ins
				flush(ins)
			case ir.OpBr:
				flush(ins)
				p.succ[0] = edgeTo(b, ins.Targets[0])
				break walk
			case ir.OpCondBr:
				flush(ins)
				p.cond = ins.A
				p.succ = [2]edge{edgeTo(b, ins.Targets[0]), edgeTo(b, ins.Targets[1])}
				break walk
			case ir.OpRet:
				flush(ins)
				p.ret = ins
				break walk
			default:
				seg.ops = append(seg.ops, opOf(ins))
				seg.ids = append(seg.ids, ins.ID)
			}
		}
		c.pieces[pi] = p
		return pi
	}
	if sp.Block < len(f.Blocks) {
		pieceAt(sp.Block, sp.Index)
	} else {
		c.pieces = []piece{{cond: -1, succ: [2]edge{{piece: -1, err: fmt.Errorf("interp: %s has no block b%d", f.Name, sp.Block)}}}}
	}
	return c
}

func compileOp(in *ir.Instr, gslot map[string]int) Op {
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
	case ir.OpLoadGlobal, ir.OpStoreGlobal:
		gs, ok := gslot[in.Name]
		if !ok {
			err := fmt.Errorf("interp: %s: undeclared global %s", in.Pos, in.Name)
			return func(t *Thread, regs, locals []value.Value) error { return err }
		}
		name, dst, a := in.Name, in.Dst, in.A
		if in.Op == ir.OpLoadGlobal {
			return func(t *Thread, regs, locals []value.Value) error {
				if t.Tracer != nil {
					t.Tracer.TraceGlobal(t.ID, name, false)
				}
				regs[dst] = t.Env.Globals.vals[gs]
				return nil
			}
		}
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
	// Any other opcode only costs its instruction.
	return func(t *Thread, regs, locals []value.Value) error { return nil }
}

// exec runs a compiled function on a fresh frame from its pool.
func (t *Thread) exec(fc *fnCode, args []value.Value) ([]value.Value, error) {
	if t.depth >= maxDepth {
		return nil, fmt.Errorf("interp: call depth exceeded in %s", fc.f.Name)
	}
	if len(args) != fc.f.Params {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d", fc.f.Name, fc.f.Params, len(args))
	}
	var prof *Profile
	if p := t.Profile; p != nil && p.fn == fc.f {
		prof = p
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

	s, err := t.run(fc.code, regs, locals, prof)
	if err != nil {
		return nil, err
	}
	out := t.results(len(s.Ret.Args))
	for i, r := range s.Ret.Args {
		out[i] = regs[r]
	}
	return out, nil
}

// Run executes compiled code on the frame regs/locals until it returns
// or leaves its span.
func (t *Thread) Run(c *Code, regs, locals []value.Value) (Stop, error) {
	return t.run(c, regs, locals, nil)
}

// run is the instruction engine. Each segment's full cost (its
// instructions plus the trailing call or terminator) is charged before
// the segment body. With prof set, every instruction's cost, and each
// call's callee cost, is attributed to the instruction.
func (t *Thread) run(c *Code, regs, locals []value.Value, prof *Profile) (Stop, error) {
	p := &c.pieces[0]
	for {
		for si := range p.segs {
			s := &p.segs[si]
			t.Cost += s.cost
			for _, op := range s.ops {
				if err := op(t, regs, locals); err != nil {
					return Stop{}, err
				}
			}
			var callCost int64
			if s.call != nil {
				before := t.Cost
				var err error
				if c.call != nil {
					err = c.call(t, s.call, regs, locals)
				} else {
					err = t.execCall(s.call, regs, locals)
				}
				if err != nil {
					return Stop{}, err
				}
				callCost = t.Cost - before
			}
			if prof != nil {
				prof.charge(s, callCost)
			}
		}
		if p.ret != nil {
			return Stop{Ret: p.ret}, nil
		}
		e := &p.succ[0]
		if p.cond >= 0 && !regs[p.cond].AsBool() {
			e = &p.succ[1]
		}
		if e.piece < 0 {
			return Stop{Next: e.blk}, e.err
		}
		p = &c.pieces[e.piece]
	}
}

// charge attributes one executed segment: CostPerInstr to each of its
// instructions, plus callCost (the callee's whole cost) to its call.
func (p *Profile) charge(s *segment, callCost int64) {
	for _, id := range s.ids {
		p.Cost[id] += CostPerInstr
	}
	if s.call != nil {
		p.Cost[s.call.ID] += callCost
	}
	p.Total += s.cost + callCost
}
