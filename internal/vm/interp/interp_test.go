package interp_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/types"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// compile lowers a source snippet with a sink builtin.
func compile(t testing.TB, src string) (*lower.Result, *[]int64) {
	t.Helper()
	sink := &[]int64{}
	sigs := map[string]*types.Sig{
		"emit":  {Name: "emit", Params: []ast.Type{ast.TInt}, Result: ast.TVoid},
		"heavy": {Name: "heavy", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
	}
	var diags source.DiagList
	prog := parser.Parse(source.NewFile("t.mc", src), &diags)
	info := types.Check(prog, sigs, &diags)
	res := lower.Lower(info, &diags)
	if diags.HasErrors() {
		t.Fatalf("compile:\n%s", diags.String())
	}
	return res, sink
}

func builtinsFor(sink *[]int64) map[string]interp.BuiltinFn {
	return map[string]interp.BuiltinFn{
		"emit": func(args []value.Value) (value.Value, int64, error) {
			*sink = append(*sink, args[0].AsInt())
			return value.Void(), 5, nil
		},
		"heavy": func(args []value.Value) (value.Value, int64, error) {
			return value.Int(args[0].AsInt() + 1), 1000, nil
		},
	}
}

// evalBin applies op the way executors do: through the operator that
// name resolution gives an OpBin instruction.
func evalBin(op string, a, b value.Value) (value.Value, error) {
	return interp.EvalBinInstr(&ir.Instr{Op: ir.OpBin, BinOp: op, Oper: ir.BinOper(op)}, a, b)
}

// evalUn applies unary op through its resolved operator.
func evalUn(op string, a value.Value) (value.Value, error) {
	return interp.EvalUnInstr(&ir.Instr{Op: ir.OpUn, BinOp: op, Oper: ir.UnOper(op)}, a)
}

func TestEvalBinTable(t *testing.T) {
	i := value.Int
	f := value.Float
	s := value.Str
	b := value.Bool
	cases := []struct {
		op   string
		a, c value.Value
		want value.Value
	}{
		{"+", i(2), i(3), i(5)},
		{"+", f(1.5), f(2.5), f(4)},
		{"+", s("a"), s("b"), s("ab")},
		{"-", i(2), i(5), i(-3)},
		{"-", f(2), f(0.5), f(1.5)},
		{"*", i(6), i(7), i(42)},
		{"/", i(7), i(2), i(3)},
		{"/", f(1), f(4), f(0.25)},
		{"%", i(7), i(3), i(1)},
		{"&", i(6), i(3), i(2)},
		{"|", i(6), i(3), i(7)},
		{"^", i(6), i(3), i(5)},
		{"<<", i(1), i(4), i(16)},
		{">>", i(16), i(4), i(1)},
		{"==", i(3), i(3), b(true)},
		{"!=", s("x"), s("y"), b(true)},
		{"<", f(1), f(2), b(true)},
		{"<=", i(2), i(2), b(true)},
		{">", s("b"), s("a"), b(true)},
		{">=", i(1), i(2), b(false)},
	}
	for _, c := range cases {
		got, err := evalBin(c.op, c.a, c.c)
		if err != nil {
			t.Errorf("%v %s %v: %v", c.a, c.op, c.c, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.c, got, c.want)
		}
	}
}

func TestEvalBinErrors(t *testing.T) {
	bad := []struct {
		op   string
		a, b value.Value
	}{
		{"/", value.Int(1), value.Int(0)},
		{"%", value.Int(1), value.Int(0)},
		{"<<", value.Int(1), value.Int(64)},
		{">>", value.Int(1), value.Int(-1)},
		{"%", value.Float(1), value.Float(2)},
		{"&", value.Bool(true), value.Bool(false)},
		{"<", value.Bool(true), value.Bool(false)},
		{"+", value.Bool(true), value.Bool(false)},
	}
	for _, c := range bad {
		if _, err := evalBin(c.op, c.a, c.b); err == nil {
			t.Errorf("%v %s %v: expected error", c.a, c.op, c.b)
		}
	}
}

func TestEvalBinIntQuick(t *testing.T) {
	// Interpreter arithmetic must agree with Go's int64 semantics.
	f := func(a, b int64) bool {
		sum, err := evalBin("+", value.Int(a), value.Int(b))
		if err != nil || sum.AsInt() != a+b {
			return false
		}
		prod, err := evalBin("*", value.Int(a), value.Int(b))
		if err != nil || prod.AsInt() != a*b {
			return false
		}
		lt, err := evalBin("<", value.Int(a), value.Int(b))
		if err != nil || lt.AsBool() != (a < b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalUn(t *testing.T) {
	if v, _ := evalUn("-", value.Int(5)); v.AsInt() != -5 {
		t.Error("unary minus int")
	}
	if v, _ := evalUn("-", value.Float(2.5)); v.AsFloat() != -2.5 {
		t.Error("unary minus float")
	}
	if v, _ := evalUn("!", value.Bool(true)); v.AsBool() {
		t.Error("not")
	}
	if _, err := evalUn("!", value.Int(1)); err == nil {
		t.Error("! on int should error")
	}
	if _, err := evalUn("-", value.Str("x")); err == nil {
		t.Error("- on string should error")
	}
}

func TestRunAndCost(t *testing.T) {
	res, sink := compile(t, `
void main() {
	for (int i = 0; i < 3; i++) {
		emit(heavy(i));
	}
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	if err := th.RunMain(); err != nil {
		t.Fatal(err)
	}
	if len(*sink) != 3 || (*sink)[0] != 1 || (*sink)[2] != 3 {
		t.Errorf("sink = %v", *sink)
	}
	// Cost must include the builtins: 3 heavy (1000) + 3 emit (5) plus
	// instruction costs.
	if th.Cost < 3015 {
		t.Errorf("cost = %d, expected >= 3015", th.Cost)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	res, sink := compile(t, `
int inf(int n) { return inf(n + 1); }
void main() { emit(inf(0)); }`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	err := interp.NewThread(env).RunMain()
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("err = %v, want depth exceeded", err)
	}
}

func TestUndefinedFunction(t *testing.T) {
	res, _ := compile(t, `void main() { }`)
	env := interp.NewEnv(res.Prog, nil)
	th := interp.NewThread(env)
	if _, err := th.CallByName("nope", nil); err == nil {
		t.Error("expected undefined function error")
	}
}

func TestProfileAttribution(t *testing.T) {
	res, sink := compile(t, `
void main() {
	int s = 0;
	for (int i = 0; i < 5; i++) {
		s = heavy(s);
	}
	emit(s);
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	mainFn := res.Prog.Funcs["main"]
	th.Profile = interp.NewProfile(mainFn)
	if err := th.RunMain(); err != nil {
		t.Fatal(err)
	}
	if th.Profile.Total != th.Cost {
		t.Errorf("profile total %d != thread cost %d", th.Profile.Total, th.Cost)
	}
	// The call instruction to heavy must carry the dominant cost.
	var maxCost int64
	var maxID int
	for id, c := range th.Profile.Cost {
		if c > maxCost {
			maxCost, maxID = c, id
		}
	}
	in := mainFn.InstrByID(maxID)
	if in == nil || in.Name != "heavy" {
		t.Errorf("dominant instruction = %v (cost %d), want call heavy", in, maxCost)
	}
}

func TestGlobalsSharedAcrossThreads(t *testing.T) {
	res, sink := compile(t, `
int g = 10;
void bump() { g = g + 1; }
void main() { bump(); emit(g); }`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	t1 := interp.NewThread(env)
	if err := t1.RunMain(); err != nil {
		t.Fatal(err)
	}
	t2 := interp.NewThread(env)
	if err := t2.RunMain(); err != nil {
		t.Fatal(err)
	}
	// Same env: the second run observes the first run's increment.
	if (*sink)[0] != 11 || (*sink)[1] != 12 {
		t.Errorf("sink = %v, want [11 12]", *sink)
	}
	snap := env.Globals.Snapshot()
	if snap["g"].AsInt() != 12 {
		t.Errorf("snapshot g = %v", snap["g"])
	}
}

func TestInterceptorWrapsCalls(t *testing.T) {
	res, sink := compile(t, `
void main() {
	for (int i = 0; i < 4; i++) { emit(i); }
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	intercepted := 0
	th.Interceptor = func(tt *interp.Thread, in *ir.Instr, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error) {
		if in.Name == "emit" {
			intercepted++
		}
		return invoke()
	}
	if err := th.RunMain(); err != nil {
		t.Fatal(err)
	}
	if intercepted != 4 {
		t.Errorf("interceptor saw %d emit calls, want 4", intercepted)
	}
	if len(*sink) != 4 {
		t.Errorf("sink = %v", *sink)
	}
}
