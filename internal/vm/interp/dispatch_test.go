package interp

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/vm/value"
)

// handBuilt is a program built without lowering: main calls twice(21) and
// emits the result through a builtin. Like lowering, it resolves names
// once the program is final.
func handBuilt() *ir.Program {
	p := &ir.Program{}
	twice := &ir.Func{Name: "twice", Params: 1, NumRegs: 2}
	twice.AddLocal("x", ast.TInt)
	tb := twice.NewBlock()
	tb.Instrs = append(tb.Instrs,
		&ir.Instr{Op: ir.OpLoadLocal, Dst: 0, Slot: 0},
		&ir.Instr{Op: ir.OpBin, Dst: 1, A: 0, B: 0, BinOp: "+"},
		&ir.Instr{Op: ir.OpRet, Args: []int{1}},
	)
	main := &ir.Func{Name: "main", NumRegs: 2}
	mb := main.NewBlock()
	mb.Instrs = append(mb.Instrs,
		&ir.Instr{Op: ir.OpConst, Dst: 0, Val: value.Int(21)},
		&ir.Instr{Op: ir.OpCall, Dst: 1, Name: "twice", Args: []int{0}},
		&ir.Instr{Op: ir.OpCall, Dst: -1, Name: "emit", Args: []int{1}},
		&ir.Instr{Op: ir.OpRet},
	)
	p.AddFunc(main)
	p.AddFunc(twice)
	main.Renumber()
	twice.Renumber()
	p.ResolveNames()
	return p
}

// TestUnresolvedProgramPanics: IR whose names were never resolved is
// refused when first compiled instead of dispatching every call to the
// first function.
func TestUnresolvedProgramPanics(t *testing.T) {
	p := handBuilt()
	p.Callees = nil
	defer func() {
		if recover() == nil {
			t.Error("unresolved program compiled")
		}
	}()
	NewEnv(p, nil)
}

// TestCompiledCodeOwnedByProgram: every environment of one program shares
// its compiled code; another program gets its own.
func TestCompiledCodeOwnedByProgram(t *testing.T) {
	p, q := handBuilt(), handBuilt()
	a, b, c := NewEnv(p, nil), NewEnv(p, nil), NewEnv(q, nil)
	if a.code != b.code {
		t.Error("two environments of one program compiled it twice")
	}
	if a.code == c.code {
		t.Error("two programs share compiled code")
	}
}

// TestOperatorTablesComplete: every binary operator lowering can resolve
// has an evaluator, and so does every unary one.
func TestOperatorTablesComplete(t *testing.T) {
	for o := ir.OperAdd; o < ir.NumOpers; o++ {
		if o >= ir.OperNot {
			if unOps[o] == nil {
				t.Errorf("unary %v has no evaluator", o)
			}
		} else if binOps[o] == nil {
			t.Errorf("binary %v has no evaluator", o)
		}
	}
}

// TestMalformedIRDiagnosed: blocks that fall through without a terminator
// (including an empty branch target), branches to missing blocks, a
// function without blocks and undeclared globals are diagnosed when
// compiled and reported when run, without a panic; a terminator mid-block
// ends its block.
func TestMalformedIRDiagnosed(t *testing.T) {
	ret := &ir.Instr{Op: ir.OpRet}
	cases := []struct {
		name   string
		blocks [][]*ir.Instr
		want   string // error text; "" runs cleanly
	}{
		{"no terminator", [][]*ir.Instr{{{Op: ir.OpConst, Dst: 0, Val: value.Int(1)}}},
			"interp: block b0 of main fell through without terminator"},
		{"empty target", [][]*ir.Instr{{{Op: ir.OpBr, Targets: [2]int{1}}}, {}},
			"interp: block b1 of main fell through without terminator"},
		{"missing target", [][]*ir.Instr{{{Op: ir.OpConst, Dst: 0, Val: value.Bool(false)}, {Op: ir.OpCondBr, A: 0, Targets: [2]int{1, 7}}}, {ret}},
			"interp: block b0 of main branches to missing block b7"},
		{"undeclared global", [][]*ir.Instr{{{Op: ir.OpLoadGlobal, Dst: 0, Name: "g"}, ret}},
			"undeclared global g"},
		{"no blocks", nil, "interp: main has no block b0"},
		{"terminator mid-block", [][]*ir.Instr{{ret, {Op: ir.OpConst, Dst: 0, Val: value.Int(1)}}}, ""},
	}
	for _, c := range cases {
		p := &ir.Program{}
		main := &ir.Func{Name: "main", NumRegs: 1}
		for _, instrs := range c.blocks {
			main.NewBlock().Instrs = instrs
		}
		p.AddFunc(main)
		main.Renumber()
		p.ResolveNames()
		th := NewThread(NewEnv(p, nil))
		err := th.RunMain()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
