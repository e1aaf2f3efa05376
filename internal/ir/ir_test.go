package ir

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/vm/value"
)

// buildFunc assembles a two-block function by hand:
//
//	b0: r0 = const 1; stloc #0 = r0; condbr r0 b1 b1
//	b1: r1 = ldloc #0; ret r1
func buildFunc() *Func {
	f := &Func{Name: "f", Results: []ast.Type{ast.TInt}}
	f.AddLocal("x", ast.TInt)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Instrs = append(b0.Instrs,
		&Instr{Op: OpConst, Dst: 0, Val: value.Int(1)},
		&Instr{Op: OpStoreLocal, Slot: 0, A: 0},
		&Instr{Op: OpCondBr, A: 0, Targets: [2]int{1, 1}},
	)
	b1.Instrs = append(b1.Instrs,
		&Instr{Op: OpLoadLocal, Dst: 1, Slot: 0},
		&Instr{Op: OpRet, Args: []int{1}},
	)
	f.NumRegs = 2
	f.Renumber()
	return f
}

func TestRenumberDense(t *testing.T) {
	f := buildFunc()
	want := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID != want {
				t.Fatalf("instr ID %d, want %d", in.ID, want)
			}
			want++
		}
	}
	if f.NumInstrs() != want {
		t.Errorf("NumInstrs = %d, want %d", f.NumInstrs(), want)
	}
}

func TestInstrLookups(t *testing.T) {
	f := buildFunc()
	in := f.InstrByID(3)
	if in == nil || in.Op != OpLoadLocal {
		t.Fatalf("InstrByID(3) = %v", in)
	}
	if blk := f.BlockOf(3); blk == nil || blk.ID != 1 {
		t.Errorf("BlockOf(3) = %v", blk)
	}
	if blk := f.BlockOfInstr(in); blk == nil || blk.ID != 1 {
		t.Errorf("BlockOfInstr = %v", blk)
	}
	if f.InstrByID(99) != nil {
		t.Error("InstrByID out of range should be nil")
	}
}

func TestSuccsAndTerminators(t *testing.T) {
	f := buildFunc()
	b0 := f.Blocks[0]
	if term := b0.Terminator(); term == nil || term.Op != OpCondBr {
		t.Fatalf("terminator = %v", term)
	}
	// CondBr with equal targets deduplicates.
	if succs := b0.Succs(); len(succs) != 1 || succs[0] != 1 {
		t.Errorf("succs = %v", succs)
	}
	if succs := f.Blocks[1].Succs(); len(succs) != 0 {
		t.Errorf("ret succs = %v", succs)
	}
	// Distinct targets yield two successors.
	b0.Instrs[2].Targets = [2]int{0, 1}
	if succs := b0.Succs(); len(succs) != 2 {
		t.Errorf("succs = %v", succs)
	}
	// An unfinished block has no terminator.
	nb := f.NewBlock()
	if nb.Terminator() != nil {
		t.Error("empty block should have nil terminator")
	}
}

func TestIsTerminator(t *testing.T) {
	cases := map[Op]bool{
		OpBr: true, OpCondBr: true, OpRet: true,
		OpConst: false, OpCall: false, OpStoreLocal: false,
	}
	for op, want := range cases {
		if got := (&Instr{Op: op}).IsTerminator(); got != want {
			t.Errorf("IsTerminator(%v) = %v", op, got)
		}
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: OpConst, Dst: 2, Val: value.Int(7)}, "r2 = const 7"},
		{&Instr{Op: OpLoadLocal, Dst: 1, Slot: 3}, "r1 = ldloc #3"},
		{&Instr{Op: OpStoreGlobal, Name: "g", A: 4}, "stglob g = r4"},
		{&Instr{Op: OpBin, Dst: 0, A: 1, B: 2, BinOp: "+"}, "r0 = r1 + r2"},
		{&Instr{Op: OpCall, Dst: 3, Name: "f", Args: []int{1, 2}}, "r3 = call f(r1, r2)"},
		{&Instr{Op: OpCall, Dst: -1, Name: "r", Args: []int{0}, OutSlots: []int{5}}, "call r(r0) outs=[5]"},
		{&Instr{Op: OpBr, Targets: [2]int{4, 4}}, "br b4"},
		{&Instr{Op: OpCondBr, A: 1, Targets: [2]int{2, 3}}, "condbr r1 b2 b3"},
		{&Instr{Op: OpRet, Args: []int{0}}, "ret r0"},
	}
	for _, c := range cases {
		if got := c.in.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want contains %q", got, c.want)
		}
	}
}

func TestFuncString(t *testing.T) {
	f := buildFunc()
	s := f.String()
	for _, frag := range []string{"func f", "local #0 int x", "b0:", "b1:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Func.String missing %q:\n%s", frag, s)
		}
	}
	f.IsRegion = true
	if !strings.Contains(f.String(), "region f") {
		t.Error("region marker missing")
	}
}

func TestProgramRegistry(t *testing.T) {
	p := &Program{}
	f := buildFunc()
	p.AddFunc(f)
	if p.Func("f") != f {
		t.Error("Func lookup failed")
	}
	if p.Func("missing") != nil {
		t.Error("missing func should be nil")
	}
	if len(p.Order) != 1 || p.Order[0] != "f" {
		t.Errorf("Order = %v", p.Order)
	}
}

func TestOpString(t *testing.T) {
	if OpConst.String() != "const" || OpCall.String() != "call" {
		t.Error("op names wrong")
	}
	if Op(99).String() == "" {
		t.Error("unknown op should still render")
	}
}

// TestResolveNames: user functions take the first callee indices in Order,
// builtins follow in first-call order, repeated callees share one index,
// and operators resolve by arity ("-" is OperSub binary, OperNeg unary).
func TestResolveNames(t *testing.T) {
	p := &Program{}
	main := &Func{Name: "main"}
	helper := &Func{Name: "helper"}
	p.AddFunc(main)
	p.AddFunc(helper)
	b := main.NewBlock()
	calls := []*Instr{
		{Op: OpCall, Dst: -1, Name: "print_int"},
		{Op: OpCall, Dst: -1, Name: "helper"},
		{Op: OpCall, Dst: -1, Name: "emit"},
		{Op: OpCall, Dst: -1, Name: "print_int"},
	}
	sub := &Instr{Op: OpBin, Dst: 0, A: 1, B: 2, BinOp: "-"}
	neg := &Instr{Op: OpUn, Dst: 0, A: 1, BinOp: "-"}
	bad := &Instr{Op: OpBin, Dst: 0, A: 1, B: 2, BinOp: "**"}
	b.Instrs = append(append(b.Instrs, calls...), sub, neg, bad, &Instr{Op: OpRet})
	hb := helper.NewBlock()
	hb.Instrs = append(hb.Instrs, &Instr{Op: OpCall, Dst: -1, Name: "main"}, &Instr{Op: OpRet})

	for pass := 0; pass < 2; pass++ { // idempotent
		p.ResolveNames()
		if got, want := strings.Join(p.Callees, ","), "main,helper,print_int,emit"; got != want {
			t.Fatalf("pass %d: Callees = %s, want %s", pass, got, want)
		}
		for _, in := range append(calls, hb.Instrs[0]) {
			if p.Callees[in.Callee] != in.Name {
				t.Errorf("pass %d: call %s resolved to %s", pass, in.Name, p.Callees[in.Callee])
			}
		}
		if sub.Oper != OperSub || neg.Oper != OperNeg || bad.Oper != OperInvalid {
			t.Errorf("pass %d: opers sub=%v neg=%v bad=%v", pass, sub.Oper, neg.Oper, bad.Oper)
		}
	}
}

func TestOperSpellingsRoundTrip(t *testing.T) {
	for o := OperAdd; o < NumOpers; o++ {
		resolve := BinOper
		if o >= OperNot {
			resolve = UnOper
		}
		if got := resolve(o.String()); got != o {
			t.Errorf("%v: spelling %q resolves to %v", int(o), o.String(), got)
		}
	}
}
