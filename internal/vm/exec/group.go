package exec

import (
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/transform"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// schedCode is a schedule's compiled main-frame code: every instruction
// group the executors run — each unit, the loop condition, the post
// increment — plus the prologue and epilogue. It is built once per
// schedule (transform.Schedule.Compiled) by the interpreter's compiler,
// so main and the callee bodies run on one instruction engine, and it is
// shared read-only by every run and simulated thread. A nil group has no
// instructions.
type schedCode struct {
	units    []*interp.Code
	cond     *interp.Code
	post     *interp.Code
	prologue *interp.Code // entry block up to the loop header
	epilogue *interp.Code // loop exit to main's return; nil without an exit
}

// codeOf returns the schedule's compiled main-frame code for loop la of
// prog, building it on first use.
func codeOf(prog *ir.Program, la *pipeline.LoopAnalysis, sched *transform.Schedule) *schedCode {
	return sched.Compiled(func(s *transform.Schedule) any { return compileSchedule(prog, la, s) }).(*schedCode)
}

func compileSchedule(prog *ir.Program, la *pipeline.LoopAnalysis, sched *transform.Schedule) *schedCode {
	f := la.Fn
	c := &mainCompiler{prog: prog, f: f, shared: make([]bool, len(f.Locals))}
	for _, s := range sched.SharedSlots {
		if s >= 0 && s < len(c.shared) {
			c.shared[s] = true
		}
	}
	sc := &schedCode{cond: c.group(la.Units.Cond), post: c.group(la.Units.Post)}
	for _, u := range la.Units.Units {
		sc.units = append(sc.units, c.group(u))
	}
	sc.prologue = c.blocks(0, la.Loop.Header)
	if len(la.Loop.Exits) > 0 {
		sc.epilogue = c.blocks(la.Loop.Exits[0], -1)
	}
	return sc
}

// mainCompiler compiles main's groups for one schedule.
type mainCompiler struct {
	prog   *ir.Program
	f      *ir.Func
	shared []bool // frame slot → promoted to a shared cell
}

func (c *mainCompiler) isShared(slot int) bool {
	return slot >= 0 && slot < len(c.shared) && c.shared[slot]
}

// group compiles an instruction group: it starts at the group's first
// instruction and runs while control stays on the group's instructions.
func (c *mainCompiler) group(instrs []*ir.Instr) *interp.Code {
	if len(instrs) == 0 {
		return nil
	}
	member := make(map[*ir.Instr]bool, len(instrs))
	for _, in := range instrs {
		member[in] = true
	}
	b := c.f.BlockOfInstr(instrs[0])
	i := 0
	for b.Instrs[i] != instrs[0] {
		i++
	}
	return c.span(b.ID, i, func(_ int, in *ir.Instr) bool { return member[in] })
}

// blocks compiles a block run: from the start of block from until control
// enters block until (or main returns, when until is -1).
func (c *mainCompiler) blocks(from, until int) *interp.Code {
	return c.span(from, 0, func(b int, _ *ir.Instr) bool { return b != until })
}

func (c *mainCompiler) span(b, i int, in func(int, *ir.Instr) bool) *interp.Code {
	return interp.Compile(c.prog, c.f, interp.Span{Block: b, Index: i, In: in, Op: c.op, Call: mainCall})
}

// op replaces the interpreter's op for main's shared-slot accesses, which
// go through the shared cells while the loop runs and tag the registers
// they load; with no shared slots, main runs the interpreter's ops alone.
// Lowering defines every register once, so only its shared-slot load
// writes a tagged register, and that load sets or clears the tag itself.
func (c *mainCompiler) op(in *ir.Instr, op interp.Op) interp.Op {
	switch {
	case in.Op == ir.OpLoadLocal && c.isShared(in.Slot):
		return sharedLoad(in.Dst, in.Slot)
	case in.Op == ir.OpStoreLocal && c.isShared(in.Slot):
		return sharedStore(in.Slot, in.A)
	}
	return op
}

// mainCall runs a main-frame call through the stepper's member
// synchronization and shared-cell plumbing.
func mainCall(t *interp.Thread, in *ir.Instr, regs, locals []value.Value) error {
	return t.Host.(*stepper).execCall(in)
}

// sharedLoad reads a promoted slot: from its shared cell while the loop
// runs, tagging the register so member calls re-read it inside their
// atomic section; from the frame otherwise.
func sharedLoad(dst, slot int) interp.Op {
	return func(t *interp.Thread, regs, locals []value.Value) error {
		st := t.Host.(*stepper)
		if !st.sharedActive {
			st.fr.sharedSrc[dst] = 0
			regs[dst] = locals[slot]
			return nil
		}
		if mon := st.m.cfg.Sanitize; mon != nil {
			mon.Cell(st.th.ID, slot, false)
		}
		regs[dst] = st.m.cellAt[slot].v
		st.fr.sharedSrc[dst] = slot + 1
		return nil
	}
}

// sharedStore writes a promoted slot: to its shared cell (an externalized
// effect) while the loop runs, to the frame otherwise.
func sharedStore(slot, a int) interp.Op {
	return func(t *interp.Thread, regs, locals []value.Value) error {
		st := t.Host.(*stepper)
		if !st.sharedActive {
			locals[slot] = regs[a]
			return nil
		}
		st.effects++
		if mon := st.m.cfg.Sanitize; mon != nil {
			mon.Cell(st.th.ID, slot, true)
		}
		st.m.cellAt[slot].v = regs[a]
		return nil
	}
}

// runGroup runs one compiled group on the stepper's frame. The engine
// charges main's instructions to the interpreter thread like callee
// instructions; every call path flushes that cost to the simulated thread
// before it can yield, and the group flushes the rest on exit.
func (st *stepper) runGroup(c *interp.Code) (interp.Stop, error) {
	if c == nil {
		return interp.Stop{}, nil
	}
	s, err := st.it.Run(c, st.fr.regs, st.fr.locals)
	st.flush()
	return s, err
}
