package main

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/callgraph"
	"repro/internal/commset"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pdg"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/types"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
	"repro/internal/workloads"
)

// The benchmark calls every compiler stage itself, in the order
// pipeline.Compile does, so each stage gets its own span. It never goes
// through the bench package's Compile/Run, whose memo caches would turn
// repeated work into cache hits.

// compileStages runs parse → types → lower → callgraph/commset model/
// well-formedness → effect summaries on one source.
func compileStages(tr *tracer, name, src string, sigs map[string]*types.Sig, eff effects.Table) (*pipeline.Compiled, error) {
	c := &pipeline.Compiled{File: source.NewFile(name, src)}
	var prog *ast.Program
	tr.do(layerParser, func() { prog = parser.Parse(c.File, &c.Diags) })
	if err := c.Diags.Err(); err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	tr.count("parser.ast_nodes", astNodes(prog))
	tr.do(layerTypes, func() { c.Info = types.Check(prog, sigs, &c.Diags) })
	if err := c.Diags.Err(); err != nil {
		return nil, fmt.Errorf("types %s: %w", name, err)
	}
	tr.do(layerLower, func() { c.Low = lower.Lower(c.Info, &c.Diags) })
	if err := c.Diags.Err(); err != nil {
		return nil, fmt.Errorf("lower %s: %w", name, err)
	}
	tr.count("lower.ir_instrs", irInstrs(c.Low.Prog))
	tr.do(layerCommset, func() {
		c.CG = callgraph.Build(c.Low.Prog)
		c.Model = commset.BuildModel(c.Info, c.Low)
		c.Model.CheckWellFormed(c.CG, &c.Diags, name)
	})
	if err := c.Diags.Err(); err != nil {
		return nil, fmt.Errorf("commset %s: %w", name, err)
	}
	tr.do(layerEffects, func() { c.Summary = effects.Summarize(c.Low.Prog, eff) })
	return c, nil
}

// analyzeLoop builds and annotates the PDG of one loop (PDG + Algorithm 1).
func analyzeLoop(tr *tracer, c *pipeline.Compiled, fn string, header int) (*pipeline.LoopAnalysis, error) {
	var la *pipeline.LoopAnalysis
	var err error
	tr.do(layerAnalyze, func() { la, err = c.AnalyzeLoop(fn, header) })
	if err != nil {
		return nil, err
	}
	countPDG(tr, la)
	return la, nil
}

func countPDG(tr *tracer, la *pipeline.LoopAnalysis) {
	tr.count("pdg.nodes", int64(len(la.PDG.Nodes)))
	tr.count("pdg.edges", int64(len(la.PDG.Edges)))
	var relaxed int64
	for _, e := range la.PDG.Edges {
		if e.Comm != pdg.CommNone {
			relaxed++
		}
	}
	tr.count("depend.relaxed_edges", relaxed)
}

// schedules generates every applicable schedule of an analyzed loop.
func schedules(tr *tracer, la *pipeline.LoopAnalysis, weights map[int]int64, threads int) []*transform.Schedule {
	var out []*transform.Schedule
	tr.do(layerTransform, func() { out = transform.Schedules(la, weights, threads) })
	tr.count("transform.schedules", int64(len(out)))
	return out
}

// runVet runs the analyzer the way one commsetvet invocation does: every
// check family in one analysis.Run, which analyzes every loop itself.
func runVet(tr *tracer, c *pipeline.Compiled, privatize bool) (*source.DiagList, error) {
	var diags *source.DiagList
	var err error
	tr.do(layerAnalysis, func() {
		diags, err = analysis.Run(c, analysis.Options{Checks: analysis.DefaultChecks(), Threads: maxThreads, Privatize: privatize})
	})
	if err != nil {
		return nil, err
	}
	tr.count("analysis.diags", int64(len(diags.Diags)))
	return diags, nil
}

// vetFamilies runs the analyzer once per check family, in report order,
// for the traced run's per-family breakdown.
func vetFamilies(tr *tracer, c *pipeline.Compiled, privatize bool) error {
	families := []analysis.Checks{{Unsound: true}, {Race: true}, {Lint: true}, {Commute: true}}
	for i, ck := range families {
		var err error
		tr.do(analysisLayers[i], func() {
			_, err = analysis.Run(c, analysis.Options{Checks: ck, Threads: maxThreads, Privatize: privatize})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// maxThreads is the thread count schedules are generated for, as in the
// schedule campaign; cells run them at 2, 4 or 8 threads.
const maxThreads = 8

// simProgram is one workload variant compiled for simulation: profiled,
// its hot loop analyzed, its schedules generated, and its sequential
// baseline run on the given inputs.
type simProgram struct {
	name     string
	wl       *workloads.Workload
	variant  string
	c        *pipeline.Compiled
	la       *pipeline.LoopAnalysis
	scheds   []*transform.Schedule
	setup    func(*builtins.World) // populates the program's inputs
	seqCost  int64
	seqWorld *builtins.World
}

func (p *simProgram) schedule(kind transform.Kind) *transform.Schedule {
	for _, s := range p.scheds {
		if s.Kind == kind {
			return s
		}
	}
	return nil
}

// world builds a fresh substrate populated with the program's inputs.
func (p *simProgram) world(tr *tracer) *builtins.World {
	return buildWorld(tr, p.setup)
}

func buildWorld(tr *tracer, setup func(*builtins.World)) *builtins.World {
	var w *builtins.World
	tr.do(layerWorld, func() {
		w = builtins.NewWorld()
		setup(w)
	})
	tr.count("builtins.worlds", 1)
	return w
}

// fns returns the world's builtin table, wrapped so every call is timed
// and counted when tracing is on.
func fns(tr *tracer, w *builtins.World) map[string]interp.BuiltinFn {
	return wrapBuiltins(tr, w.Fns())
}

func wrapBuiltins(tr *tracer, in map[string]interp.BuiltinFn) map[string]interp.BuiltinFn {
	if !tr.on {
		return in
	}
	out := make(map[string]interp.BuiltinFn, len(in))
	for name, fn := range in {
		fn := fn
		out[name] = func(args []value.Value) (value.Value, int64, error) {
			start := tr.now()
			v, c, err := fn(args)
			tr.leaf(layerCall, tr.now()-start)
			tr.count("builtins.calls", 1)
			return v, c, err
		}
	}
	return out
}

// compileSim compiles, profiles, analyzes and baselines one variant of a
// workload ("noannot" is the pragma-stripped non-COMMSET baseline).
func compileSim(tr *tracer, wl *workloads.Workload, variant string, setup func(*builtins.World), vet bool) (*simProgram, error) {
	src := wl.Variant(variant)
	if variant == "noannot" {
		src = workloads.StripPragmas(wl.Primary())
	}
	name := fmt.Sprintf("%s[%s]", wl.Name, variant)
	p := &simProgram{name: name, wl: wl, variant: variant, setup: setup}
	tables := p.world(tr)
	eff := tables.EffectTable()
	if variant == "noannot" {
		eff = tables.ConservativeEffectTable()
	}
	c, err := compileStages(tr, name, src, tables.Sigs(), eff)
	if err != nil {
		return nil, err
	}
	p.c = c
	if vet {
		diags, err := runVet(tr, c, false)
		if err != nil {
			return nil, fmt.Errorf("vet %s: %w", name, err)
		}
		for i := range diags.Diags {
			if diags.Diags[i].Sev >= source.SevWarning {
				return nil, fmt.Errorf("vet %s: %s", name, diags.Diags[i].Error())
			}
		}
	}

	var prof *profile.Result
	pf := fns(tr, p.world(tr))
	tr.do(layerProfile, func() { prof, err = profile.Run(c, pf) })
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", name, err)
	}
	tr.count("profile.cost", prof.Total)
	hot := prof.Hottest()
	if hot < 0 {
		return nil, fmt.Errorf("%s has no loop in main", name)
	}
	if p.la, err = analyzeLoop(tr, c, "main", hot); err != nil {
		return nil, fmt.Errorf("analyze %s: %w", name, err)
	}
	p.scheds = schedules(tr, p.la, prof.Weights, maxThreads)
	p.seqWorld, p.seqCost, err = p.sequential(tr, p.setup)
	return p, err
}

// sequential runs the program sequentially over inputs built by setup and
// returns the final world and the virtual time.
func (p *simProgram) sequential(tr *tracer, setup func(*builtins.World)) (*builtins.World, int64, error) {
	w := buildWorld(tr, setup)
	var r *exec.Result
	var err error
	tr.do(layerSeq, func() { r, err = exec.RunSequential(p.config(tr, w)) })
	if err != nil {
		return nil, 0, fmt.Errorf("sequential %s: %w", p.name, err)
	}
	tr.count("exec.seq_cost", r.VirtualTime)
	return w, r.VirtualTime, nil
}

// config is the plain executor configuration over world w.
func (p *simProgram) config(tr *tracer, w *builtins.World) exec.Config {
	return exec.Config{
		Prog:     p.c.Low.Prog,
		Builtins: fns(tr, w),
		Model:    p.c.Model,
		Cost:     des.DefaultCostModel(),
	}
}

// astNodes counts declarations, statements and expressions.
func astNodes(prog *ast.Program) int64 {
	n := int64(len(prog.Globals) + len(prog.Pragmas))
	for _, f := range prog.Funcs {
		n += 1 + int64(len(f.Params))
		if f.Body == nil {
			continue
		}
		ast.Inspect(f.Body, func(ast.Stmt) bool { n++; return true })
		ast.InspectExprs(f.Body, func(ast.Expr) { n++ })
	}
	return n
}

// irInstrs counts the lowered program's instructions.
func irInstrs(prog *ir.Program) int64 {
	var n int64
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}
