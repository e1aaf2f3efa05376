// Package ir defines the COMMSET compiler's intermediate representation.
//
// The IR is a conventional three-address representation organized as
// functions of basic blocks. Virtual registers are block-local by
// construction (the lowerer routes every cross-block value through a local
// variable slot), which keeps dependence analysis simple: register def-use
// chains never leave a block, and all cross-block dataflow is visible as
// local-slot loads and stores — exactly the memory accesses the PDG builder
// needs to see.
//
// Commutative regions extracted from annotated compound statements become
// ordinary Funcs flagged IsRegion; their call sites use Args for live-ins
// and OutSlots for the caller slots receiving live-outs.
package ir

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/vm/value"
)

// Op enumerates IR instruction opcodes.
type Op int

// IR opcodes.
const (
	OpConst       Op = iota // Dst = Val
	OpLoadLocal             // Dst = locals[Slot]
	OpStoreLocal            // locals[Slot] = A
	OpLoadGlobal            // Dst = globals[Name]
	OpStoreGlobal           // globals[Name] = A
	OpBin                   // Dst = A <BinOp> B
	OpUn                    // Dst = <BinOp> A (NOT or SUB)
	OpCall                  // Dst = Name(Args...); region calls also write OutSlots
	OpBr                    // goto Targets[0]
	OpCondBr                // if A goto Targets[0] else Targets[1]
	OpRet                   // return Args (0 or 1 values; regions may return several)
)

var opNames = [...]string{
	OpConst: "const", OpLoadLocal: "ldloc", OpStoreLocal: "stloc",
	OpLoadGlobal: "ldglob", OpStoreGlobal: "stglob",
	OpBin: "bin", OpUn: "un", OpCall: "call",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// Instr is one IR instruction. Register operands are indices into the
// executing frame's register file; Slot operands index the function's local
// variable slots.
type Instr struct {
	ID  int // unique within the function; assigned by Func.Renumber
	Op  Op
	Dst int // destination register, -1 if none

	A, B int // register operands (-1 if unused)

	Slot  int         // local slot for OpLoadLocal/OpStoreLocal
	Name  string      // global name or callee name
	Val   value.Value // OpConst payload
	BinOp string      // operator spelling for OpBin/OpUn (e.g. "+", "!")

	// Callee (OpCall) indexes Program.Callees and Oper (OpBin/OpUn) is
	// the resolved operator: Program.ResolveNames sets both, so executors
	// dispatch on integers instead of hashing Name or BinOp.
	Callee int
	Oper   Oper

	Args     []int  // call argument registers, or OpRet value registers
	OutSlots []int  // region calls: caller local slots receiving outputs
	Targets  [2]int // branch targets (block IDs)

	Pos source.Pos
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Op == OpBr || in.Op == OpCondBr || in.Op == OpRet
}

// Block is a basic block: straight-line instructions ending in a terminator.
type Block struct {
	ID     int
	Instrs []*Instr
}

// Terminator returns the block's final instruction, or nil if the block is
// still under construction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the IDs of the block's successor blocks.
func (b *Block) Succs() []int {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		return []int{t.Targets[0]}
	case OpCondBr:
		if t.Targets[0] == t.Targets[1] {
			return []int{t.Targets[0]}
		}
		return []int{t.Targets[0], t.Targets[1]}
	}
	return nil
}

// Local is one local variable slot of a function.
type Local struct {
	Name string
	Type ast.Type
}

// Func is one IR function.
type Func struct {
	Name    string
	Params  int // the first Params locals are parameters
	Results []ast.Type
	Locals  []Local
	Blocks  []*Block
	NumRegs int

	// IsRegion marks commutative regions extracted from compound
	// statements; their calls write OutSlots in the caller.
	IsRegion bool
	// SrcFunc is the original source function a region was extracted from.
	SrcFunc string
	Pos     source.Pos
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// BlockByID returns the block with the given ID. Block IDs equal slice
// positions by construction.
func (f *Func) BlockByID(id int) *Block { return f.Blocks[id] }

// NewBlock appends a fresh empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// AddLocal appends a local slot and returns its index.
func (f *Func) AddLocal(name string, t ast.Type) int {
	f.Locals = append(f.Locals, Local{Name: name, Type: t})
	return len(f.Locals) - 1
}

// Renumber assigns dense instruction IDs in block order. Call after any
// structural edit (lowering, inlining) and before analysis.
func (f *Func) Renumber() {
	id := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.ID = id
			id++
		}
	}
}

// NumInstrs returns the total instruction count (valid after Renumber).
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// InstrByID returns the instruction with the given ID (valid after
// Renumber), or nil.
func (f *Func) InstrByID(id int) *Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID == id {
				return in
			}
		}
	}
	return nil
}

// BlockOfInstr returns the block containing the given instruction, matched
// by pointer identity, or nil.
func (f *Func) BlockOfInstr(target *Instr) *Block {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in == target {
				return b
			}
		}
	}
	return nil
}

// BlockOf returns the block containing the instruction with the given ID.
func (f *Func) BlockOf(id int) *Block {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID == id {
				return b
			}
		}
	}
	return nil
}

// Oper is a resolved OpBin/OpUn operator, a dense index for executor
// dispatch tables. The zero value is no valid operator.
type Oper uint8

// Resolved operators; OperSub and OperNeg share the spelling "-".
const (
	OperInvalid Oper = iota
	OperAdd
	OperSub
	OperMul
	OperDiv
	OperMod
	OperAnd
	OperOr
	OperXor
	OperShl
	OperShr
	OperEq
	OperNe
	OperLt
	OperLe
	OperGt
	OperGe
	OperNot
	OperNeg
	NumOpers
)

var operSpellings = [NumOpers]string{
	OperAdd: "+", OperSub: "-", OperMul: "*", OperDiv: "/", OperMod: "%",
	OperAnd: "&", OperOr: "|", OperXor: "^", OperShl: "<<", OperShr: ">>",
	OperEq: "==", OperNe: "!=", OperLt: "<", OperLe: "<=", OperGt: ">", OperGe: ">=",
	OperNot: "!", OperNeg: "-",
}

// String returns the operator's spelling.
func (o Oper) String() string {
	if o < NumOpers && o != OperInvalid {
		return operSpellings[o]
	}
	return fmt.Sprintf("oper%d", int(o))
}

// BinOper resolves a binary operator spelling, or returns OperInvalid.
func BinOper(spelling string) Oper {
	for o := OperAdd; o <= OperGe; o++ {
		if operSpellings[o] == spelling {
			return o
		}
	}
	return OperInvalid
}

// UnOper resolves a unary operator spelling, or returns OperInvalid.
func UnOper(spelling string) Oper {
	for o := OperNot; o <= OperNeg; o++ {
		if operSpellings[o] == spelling {
			return o
		}
	}
	return OperInvalid
}

// Global is a file-scope variable.
type Global struct {
	Name string
	Type ast.Type
	Init value.Value
}

// Program is a whole lowered translation unit.
type Program struct {
	Funcs   map[string]*Func
	Order   []string // deterministic function order (source, then regions)
	Globals []Global

	// Callees is the callee table OpCall instructions index (Instr.Callee),
	// built by ResolveNames: entry i < len(Order) is the user function
	// Order[i]; the rest are builtins, in first-call order.
	Callees []string

	compileOnce sync.Once
	compiled    any
}

// ResolveNames gives every OpCall its callee index and every OpBin/OpUn
// its operator, rebuilding Callees. Lowering calls it once the program is
// final; code that builds IR by hand must call it before execution (the
// interpreter refuses a program whose Callees is unresolved).
func (p *Program) ResolveNames() {
	index := make(map[string]int, len(p.Order))
	p.Callees = append(p.Callees[:0], p.Order...)
	for i, name := range p.Order {
		index[name] = i
	}
	for _, name := range p.Order {
		for _, b := range p.Funcs[name].Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case OpCall:
					i, ok := index[in.Name]
					if !ok {
						i = len(p.Callees)
						index[in.Name] = i
						p.Callees = append(p.Callees, in.Name)
					}
					in.Callee = i
				case OpBin:
					in.Oper = BinOper(in.BinOp)
				case OpUn:
					in.Oper = UnOper(in.BinOp)
				}
			}
		}
	}
}

// Compiled returns an executor's compiled form of the program, calling
// build on first use. The program owns the result, so it is built once
// and freed with the program; the IR must not change after the first
// call.
func (p *Program) Compiled(build func(*Program) any) any {
	p.compileOnce.Do(func() { p.compiled = build(p) })
	return p.compiled
}

// Func returns the named function or nil.
func (p *Program) Func(name string) *Func {
	return p.Funcs[name]
}

// AddFunc registers a function under its name.
func (p *Program) AddFunc(f *Func) {
	if p.Funcs == nil {
		p.Funcs = map[string]*Func{}
	}
	p.Funcs[f.Name] = f
	p.Order = append(p.Order, f.Name)
}

// String renders the instruction in a readable assembly-like syntax.
func (in *Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%d: ", in.ID)
	switch in.Op {
	case OpConst:
		fmt.Fprintf(&b, "r%d = const %s", in.Dst, in.Val)
	case OpLoadLocal:
		fmt.Fprintf(&b, "r%d = ldloc #%d", in.Dst, in.Slot)
	case OpStoreLocal:
		fmt.Fprintf(&b, "stloc #%d = r%d", in.Slot, in.A)
	case OpLoadGlobal:
		fmt.Fprintf(&b, "r%d = ldglob %s", in.Dst, in.Name)
	case OpStoreGlobal:
		fmt.Fprintf(&b, "stglob %s = r%d", in.Name, in.A)
	case OpBin:
		fmt.Fprintf(&b, "r%d = r%d %s r%d", in.Dst, in.A, in.BinOp, in.B)
	case OpUn:
		fmt.Fprintf(&b, "r%d = %s r%d", in.Dst, in.BinOp, in.A)
	case OpCall:
		if in.Dst >= 0 {
			fmt.Fprintf(&b, "r%d = ", in.Dst)
		}
		fmt.Fprintf(&b, "call %s(", in.Name)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "r%d", a)
		}
		b.WriteString(")")
		if len(in.OutSlots) > 0 {
			fmt.Fprintf(&b, " outs=%v", in.OutSlots)
		}
	case OpBr:
		fmt.Fprintf(&b, "br b%d", in.Targets[0])
	case OpCondBr:
		fmt.Fprintf(&b, "condbr r%d b%d b%d", in.A, in.Targets[0], in.Targets[1])
	case OpRet:
		b.WriteString("ret")
		for _, a := range in.Args {
			fmt.Fprintf(&b, " r%d", a)
		}
	}
	return b.String()
}

// String renders the whole function.
func (f *Func) String() string {
	var b strings.Builder
	kind := "func"
	if f.IsRegion {
		kind = "region"
	}
	fmt.Fprintf(&b, "%s %s (params=%d, locals=%d, regs=%d)\n", kind, f.Name, f.Params, len(f.Locals), f.NumRegs)
	for i, l := range f.Locals {
		fmt.Fprintf(&b, "  local #%d %s %s\n", i, l.Type, l.Name)
	}
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, " b%d:\n", blk.ID)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "   %s\n", in)
		}
	}
	return b.String()
}
