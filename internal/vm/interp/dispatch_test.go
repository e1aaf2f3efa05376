package interp

import (
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
