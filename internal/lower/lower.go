// Package lower translates the type-checked MiniC AST into IR and performs
// the COMMSET Metadata Manager's canonicalization (paper Section 4.2):
//
//   - Every commutative compound statement (a block with COMMSET membership
//     or a COMMSETNAMEDBLOCK) is extracted into its own region function, so
//     that afterwards all members of a COMMSET are functions. Nested regions
//     extract correctly because lowering recurses post-order.
//   - Call sites that enable optionally commutative named blocks
//     (COMMSETNAMEDARGADD) are inlined to clone the call path from the
//     enabling call to the named block, after which the enabled memberships
//     attach to the cloned region call with predicate arguments bound to
//     client program state.
//
// The lowering also records where every membership lives in the IR:
// CallMembs maps call instructions (region calls and, after inlining,
// enabled named-block calls) to their set memberships, with predicate
// argument values materialized in registers immediately before the call;
// FuncMembs records interface-level memberships keyed by callee name with
// predicate arguments as parameter indices.
package lower

import (
	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/token"
	"repro/internal/types"
	"repro/internal/vm/value"
)

// MembRef attaches one set membership to a specific call instruction.
// ArgRegs hold the predicate actual-argument values at the call site (empty
// for unpredicated and Self sets without arguments).
type MembRef struct {
	Set     *types.Set
	ArgRegs []int
}

// FuncMembRef is an interface-level membership: every call to the function
// is a member instance, with predicate arguments taken from the listed
// parameter positions.
type FuncMembRef struct {
	Set      *types.Set
	ParamIdx []int
}

// LoopUnits records the statement-level structure of one lowered loop: the
// instruction groups of the loop body's top-level statements ("units"), the
// header condition instructions, and the post (increment) instructions.
// The parallelizing transforms partition loop iterations at unit
// granularity, with unit-level dependences aggregated from the
// instruction-level PDG.
type LoopUnits struct {
	Func   string
	Header int // header block ID
	Units  [][]*ir.Instr
	Cond   []*ir.Instr
	Post   []*ir.Instr
}

// Result is the outcome of lowering a checked program.
type Result struct {
	Prog *ir.Program
	Info *types.Info

	// CallMembs maps region-call instructions to their memberships.
	CallMembs map[*ir.Instr][]MembRef
	// FuncMembs maps function names to interface-level memberships.
	FuncMembs map[string][]FuncMembRef
	// RegionFuncs maps region function names to the membership-bearing
	// block they were extracted from (for diagnostics and dumps).
	RegionFuncs map[string]source.Pos
	// Loops lists the unit structure of every lowered loop.
	Loops []*LoopUnits
}

// Lower lowers the checked program. Check's diagnostics must be clean;
// lowering reports internal inconsistencies into diags.
func Lower(info *types.Info, diags *source.DiagList) *Result {
	m := &module{
		res: &Result{
			Prog:        &ir.Program{Funcs: map[string]*ir.Func{}},
			Info:        info,
			CallMembs:   map[*ir.Instr][]MembRef{},
			FuncMembs:   map[string][]FuncMembRef{},
			RegionFuncs: map[string]source.Pos{},
		},
		info:     info,
		diags:    diags,
		file:     info.Prog.File.Name,
		addByStm: map[ast.Stmt][]*types.Add{},
	}
	for _, g := range info.Prog.Globals {
		m.res.Prog.Globals = append(m.res.Prog.Globals, ir.Global{
			Name: g.Name,
			Type: g.Type,
			Init: globalInit(g),
		})
	}
	for _, add := range info.Adds {
		m.addByStm[add.Stmt] = append(m.addByStm[add.Stmt], add)
	}
	// Interface-level memberships.
	for name, inst := range info.FuncMembs {
		fn := info.Prog.FindFunc(name)
		for _, memb := range inst.Membs {
			ref := FuncMembRef{Set: memb.Set}
			for _, argName := range memb.Args {
				idx := -1
				for i, p := range fn.Params {
					if p.Name == argName {
						idx = i
						break
					}
				}
				ref.ParamIdx = append(ref.ParamIdx, idx)
			}
			m.res.FuncMembs[name] = append(m.res.FuncMembs[name], ref)
		}
	}
	for _, fn := range info.Prog.Funcs {
		m.lowerFunc(fn)
	}
	m.inlineAdds()
	for _, name := range m.res.Prog.Order {
		m.res.Prog.Funcs[name].Renumber()
	}
	m.res.Prog.ResolveNames()
	return m.res
}

func globalInit(g *ast.VarDecl) value.Value {
	switch lit := g.Init.(type) {
	case *ast.IntLit:
		return value.Int(lit.Value)
	case *ast.FloatLit:
		return value.Float(lit.Value)
	case *ast.StringLit:
		return value.Str(lit.Value)
	case *ast.BoolLit:
		return value.Bool(lit.Value)
	}
	return value.Zero(g.Type)
}

type module struct {
	res      *Result
	info     *types.Info
	diags    *source.DiagList
	file     string
	regionID int

	// addByStm indexes COMMSETNAMEDARGADD records by their statement.
	addByStm map[ast.Stmt][]*types.Add
	// loweredAdds records, per add, the client call instruction and the
	// client-state slot of each predicate argument, captured while the
	// client statement is lowered.
	loweredAdds []*loweredAdd
}

// varLoc locates a client variable: a caller local slot or a global.
type varLoc struct {
	global bool
	slot   int
	name   string
}

type loweredAdd struct {
	add      *types.Add
	caller   *ir.Func
	callInst *ir.Instr
	argLocs  [][]varLoc // per membership, per argument
}

func (m *module) errorf(pos source.Pos, format string, args ...any) {
	m.diags.Errorf(m.file, pos, format, args...)
}

// --- function lowering ---

type fnLowerer struct {
	m   *module
	f   *ir.Func
	cur *ir.Block

	scopes []map[string]int // variable name -> local slot

	breakTargets    []*ir.Block
	continueTargets []*ir.Block

	srcFn *ast.FuncDecl // enclosing source function (also for regions)
}

func (m *module) lowerFunc(fn *ast.FuncDecl) {
	f := &ir.Func{Name: fn.Name, Params: len(fn.Params), Pos: fn.Pos(), SrcFunc: fn.Name}
	if fn.Result != ast.TVoid {
		f.Results = []ast.Type{fn.Result}
	}
	l := &fnLowerer{m: m, f: f, srcFn: fn}
	l.scopes = []map[string]int{{}}
	for _, p := range fn.Params {
		slot := f.AddLocal(p.Name, p.Type)
		l.scopes[0][p.Name] = slot
	}
	l.cur = f.NewBlock()
	for _, s := range fn.Body.Stmts {
		l.stmt(s)
	}
	l.ensureReturn(fn)
	m.res.Prog.AddFunc(f)
}

// ensureReturn terminates the final block with an implicit return of the
// zero value when control can fall off the end of the function.
func (l *fnLowerer) ensureReturn(fn *ast.FuncDecl) {
	if l.cur.Terminator() != nil {
		return
	}
	if fn.Result == ast.TVoid {
		l.emit(&ir.Instr{Op: ir.OpRet})
		return
	}
	r := l.newReg()
	l.emit(&ir.Instr{Op: ir.OpConst, Dst: r, Val: value.Zero(fn.Result)})
	l.emit(&ir.Instr{Op: ir.OpRet, Args: []int{r}})
}

func (l *fnLowerer) emit(in *ir.Instr) *ir.Instr {
	l.cur.Instrs = append(l.cur.Instrs, in)
	return in
}

func (l *fnLowerer) newReg() int {
	r := l.f.NumRegs
	l.f.NumRegs++
	return r
}

func (l *fnLowerer) pushScope() { l.scopes = append(l.scopes, map[string]int{}) }
func (l *fnLowerer) popScope()  { l.scopes = l.scopes[:len(l.scopes)-1] }

// lookup resolves a variable to a local slot, or reports it as global.
func (l *fnLowerer) lookup(name string) (slot int, global bool) {
	for i := len(l.scopes) - 1; i >= 0; i-- {
		if s, ok := l.scopes[i][name]; ok {
			return s, false
		}
	}
	return -1, true
}

func (l *fnLowerer) declare(name string, t ast.Type) int {
	slot := l.f.AddLocal(name, t)
	l.scopes[len(l.scopes)-1][name] = slot
	return slot
}

// setCur switches emission to block b.
func (l *fnLowerer) setCur(b *ir.Block) { l.cur = b }

// br emits an unconditional branch if the current block lacks a terminator.
func (l *fnLowerer) br(target *ir.Block) {
	if l.cur.Terminator() == nil {
		l.emit(&ir.Instr{Op: ir.OpBr, Targets: [2]int{target.ID, target.ID}})
	}
}

// --- statements ---

func (l *fnLowerer) stmt(s ast.Stmt) {
	// Capture namedargadd context before lowering the statement so the
	// enabling call instruction can be identified afterwards.
	if adds := l.m.addByStm[s]; len(adds) > 0 {
		startBlk, startLen, startBlocks := l.cur, len(l.cur.Instrs), len(l.f.Blocks)
		l.stmtInner(s)
		l.recordAdds(adds, startBlk, startLen, startBlocks)
		return
	}
	l.stmtInner(s)
}

func (l *fnLowerer) stmtInner(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.DeclStmt:
		l.declStmt(n)
	case *ast.AssignStmt:
		l.assign(n)
	case *ast.IncDecStmt:
		l.incDec(n)
	case *ast.ExprStmt:
		l.expr(n.X)
	case *ast.IfStmt:
		l.ifStmt(n)
	case *ast.WhileStmt:
		l.whileStmt(n)
	case *ast.ForStmt:
		l.forStmt(n)
	case *ast.ReturnStmt:
		l.returnStmt(n)
	case *ast.BreakStmt:
		if len(l.breakTargets) == 0 {
			return // checker reported
		}
		l.br(l.breakTargets[len(l.breakTargets)-1])
		l.setCur(l.f.NewBlock()) // unreachable continuation
	case *ast.ContinueStmt:
		if len(l.continueTargets) == 0 {
			return
		}
		l.br(l.continueTargets[len(l.continueTargets)-1])
		l.setCur(l.f.NewBlock())
	case *ast.BlockStmt:
		l.blockStmt(n)
	case *ast.EmptyStmt:
	}
}

// recordAdds finds the enabling call instruction emitted while lowering the
// annotated statement and captures the client-state locations of the
// predicate arguments for later inlining.
func (l *fnLowerer) recordAdds(adds []*types.Add, startBlk *ir.Block, startLen, startBlocks int) {
	emitted := make([]*ir.Instr, 0, 16)
	emitted = append(emitted, startBlk.Instrs[startLen:]...)
	for _, b := range l.f.Blocks[startBlocks:] {
		emitted = append(emitted, b.Instrs...)
	}
	for _, add := range adds {
		var callInst *ir.Instr
		for _, in := range emitted {
			if in.Op == ir.OpCall && in.Name == add.Func {
				callInst = in
				break
			}
		}
		if callInst == nil {
			l.m.errorf(add.Pos, "commset add must annotate the statement performing the enabling call to %s", add.Func)
			continue
		}
		la := &loweredAdd{add: add, caller: l.f, callInst: callInst}
		for _, memb := range add.Membs {
			locs := make([]varLoc, len(memb.Args))
			for i, a := range memb.Args {
				if slot, global := l.lookup(a); !global {
					locs[i] = varLoc{slot: slot, name: a}
				} else {
					locs[i] = varLoc{global: true, name: a}
				}
			}
			la.argLocs = append(la.argLocs, locs)
		}
		l.m.loweredAdds = append(l.m.loweredAdds, la)
	}
}

func (l *fnLowerer) declStmt(n *ast.DeclStmt) {
	d := n.Decl
	var r int
	if d.Init != nil {
		r = l.expr(d.Init)
	} else {
		r = l.newReg()
		l.emit(&ir.Instr{Op: ir.OpConst, Dst: r, Val: value.Zero(d.Type), Pos: d.Pos()})
	}
	slot := l.declare(d.Name, d.Type)
	l.emit(&ir.Instr{Op: ir.OpStoreLocal, Slot: slot, A: r, Pos: d.Pos()})
}

func (l *fnLowerer) loadVar(name string, pos source.Pos) int {
	r := l.newReg()
	if slot, global := l.lookup(name); !global {
		l.emit(&ir.Instr{Op: ir.OpLoadLocal, Dst: r, Slot: slot, Pos: pos})
	} else {
		l.emit(&ir.Instr{Op: ir.OpLoadGlobal, Dst: r, Name: name, Pos: pos})
	}
	return r
}

func (l *fnLowerer) storeVar(name string, r int, pos source.Pos) {
	if slot, global := l.lookup(name); !global {
		l.emit(&ir.Instr{Op: ir.OpStoreLocal, Slot: slot, A: r, Pos: pos})
	} else {
		l.emit(&ir.Instr{Op: ir.OpStoreGlobal, Name: name, A: r, Pos: pos})
	}
}

func (l *fnLowerer) assign(n *ast.AssignStmt) {
	if n.Op == token.ASSIGN {
		r := l.expr(n.Rhs)
		l.storeVar(n.Lhs, r, n.Pos())
		return
	}
	// Compound assignment: load, apply, store.
	cur := l.loadVar(n.Lhs, n.Pos())
	rhs := l.expr(n.Rhs)
	dst := l.newReg()
	l.emit(&ir.Instr{Op: ir.OpBin, Dst: dst, A: cur, B: rhs, BinOp: compoundOp(n.Op), Pos: n.Pos()})
	l.storeVar(n.Lhs, dst, n.Pos())
}

func compoundOp(k token.Kind) string {
	switch k {
	case token.ADDASSIGN:
		return "+"
	case token.SUBASSIGN:
		return "-"
	case token.MULASSIGN:
		return "*"
	case token.QUOASSIGN:
		return "/"
	case token.REMASSIGN:
		return "%"
	}
	return "?"
}

func (l *fnLowerer) incDec(n *ast.IncDecStmt) {
	cur := l.loadVar(n.Name, n.Pos())
	one := l.newReg()
	l.emit(&ir.Instr{Op: ir.OpConst, Dst: one, Val: value.Int(1), Pos: n.Pos()})
	dst := l.newReg()
	op := "+"
	if n.Op == token.DEC {
		op = "-"
	}
	l.emit(&ir.Instr{Op: ir.OpBin, Dst: dst, A: cur, B: one, BinOp: op, Pos: n.Pos()})
	l.storeVar(n.Name, dst, n.Pos())
}

func (l *fnLowerer) ifStmt(n *ast.IfStmt) {
	cond := l.expr(n.Cond)
	thenB := l.f.NewBlock()
	endB := l.f.NewBlock()
	elseB := endB
	if n.Else != nil {
		elseB = l.f.NewBlock()
	}
	l.emit(&ir.Instr{Op: ir.OpCondBr, A: cond, Targets: [2]int{thenB.ID, elseB.ID}, Pos: n.Pos()})
	l.setCur(thenB)
	l.stmt(n.Then)
	l.br(endB)
	if n.Else != nil {
		l.setCur(elseB)
		l.stmt(n.Else)
		l.br(endB)
	}
	l.setCur(endB)
}

// snapLens snapshots the instruction count of every existing block, so that
// diffSince can recover exactly the instructions emitted afterwards (new
// blocks and appended tails alike).
func (l *fnLowerer) snapLens() []int {
	lens := make([]int, len(l.f.Blocks))
	for i, b := range l.f.Blocks {
		lens[i] = len(b.Instrs)
	}
	return lens
}

func (l *fnLowerer) diffSince(lens []int) []*ir.Instr {
	var out []*ir.Instr
	for i, b := range l.f.Blocks {
		start := 0
		if i < len(lens) {
			start = lens[i]
		}
		out = append(out, b.Instrs[start:]...)
	}
	return out
}

// lowerLoopBody lowers the loop body one top-level statement at a time,
// recording each statement's instructions as a unit.
func (l *fnLowerer) lowerLoopBody(body ast.Stmt) [][]*ir.Instr {
	var units [][]*ir.Instr
	if blk, ok := body.(*ast.BlockStmt); ok && !blk.HasPragmas() {
		l.pushScope()
		for _, child := range blk.Stmts {
			snap := l.snapLens()
			l.stmt(child)
			if unit := l.diffSince(snap); len(unit) > 0 {
				units = append(units, unit)
			}
		}
		l.popScope()
		return units
	}
	snap := l.snapLens()
	l.stmt(body)
	if unit := l.diffSince(snap); len(unit) > 0 {
		units = append(units, unit)
	}
	return units
}

func (l *fnLowerer) whileStmt(n *ast.WhileStmt) {
	header := l.f.NewBlock()
	body := l.f.NewBlock()
	end := l.f.NewBlock()
	l.br(header)
	l.setCur(header)
	condSnap := l.snapLens()
	cond := l.expr(n.Cond)
	l.emit(&ir.Instr{Op: ir.OpCondBr, A: cond, Targets: [2]int{body.ID, end.ID}, Pos: n.Pos()})
	condInstrs := l.diffSince(condSnap)
	l.breakTargets = append(l.breakTargets, end)
	l.continueTargets = append(l.continueTargets, header)
	l.setCur(body)
	units := l.lowerLoopBody(n.Body)
	l.br(header)
	l.breakTargets = l.breakTargets[:len(l.breakTargets)-1]
	l.continueTargets = l.continueTargets[:len(l.continueTargets)-1]
	l.setCur(end)
	l.m.res.Loops = append(l.m.res.Loops, &LoopUnits{
		Func: l.f.Name, Header: header.ID, Units: units, Cond: condInstrs,
	})
}

func (l *fnLowerer) forStmt(n *ast.ForStmt) {
	l.pushScope()
	if n.Init != nil {
		l.stmt(n.Init)
	}
	header := l.f.NewBlock()
	body := l.f.NewBlock()
	post := l.f.NewBlock()
	end := l.f.NewBlock()
	l.br(header)
	l.setCur(header)
	condSnap := l.snapLens()
	if n.Cond != nil {
		cond := l.expr(n.Cond)
		l.emit(&ir.Instr{Op: ir.OpCondBr, A: cond, Targets: [2]int{body.ID, end.ID}, Pos: n.Pos()})
	} else {
		l.br(body)
	}
	condInstrs := l.diffSince(condSnap)
	l.breakTargets = append(l.breakTargets, end)
	l.continueTargets = append(l.continueTargets, post)
	l.setCur(body)
	units := l.lowerLoopBody(n.Body)
	l.br(post)
	l.setCur(post)
	postSnap := l.snapLens()
	if n.Post != nil {
		l.stmt(n.Post)
	}
	l.br(header)
	postInstrs := l.diffSince(postSnap)
	l.breakTargets = l.breakTargets[:len(l.breakTargets)-1]
	l.continueTargets = l.continueTargets[:len(l.continueTargets)-1]
	l.setCur(end)
	l.popScope()
	l.m.res.Loops = append(l.m.res.Loops, &LoopUnits{
		Func: l.f.Name, Header: header.ID, Units: units, Cond: condInstrs, Post: postInstrs,
	})
}

func (l *fnLowerer) returnStmt(n *ast.ReturnStmt) {
	if n.X == nil {
		l.emit(&ir.Instr{Op: ir.OpRet, Pos: n.Pos()})
	} else {
		r := l.expr(n.X)
		l.emit(&ir.Instr{Op: ir.OpRet, Args: []int{r}, Pos: n.Pos()})
	}
	l.setCur(l.f.NewBlock())
}

// blockStmt lowers a compound statement, extracting it into a region
// function when it carries COMMSET membership or a named-block declaration.
func (l *fnLowerer) blockStmt(n *ast.BlockStmt) {
	inst := l.m.info.BlockMembs[n]
	named := l.namedBlockName(n)
	if inst == nil && named == "" {
		l.pushScope()
		for _, s := range n.Stmts {
			l.stmt(s)
		}
		l.popScope()
		return
	}
	l.extractRegion(n, inst, named)
}

// namedBlockName returns the COMMSETNAMEDBLOCK name of n within the current
// source function, or "".
func (l *fnLowerer) namedBlockName(n *ast.BlockStmt) string {
	for _, nb := range l.m.info.NamedBlocks[l.srcFn.Name] {
		if nb.Block == n {
			return nb.Name
		}
	}
	return ""
}
