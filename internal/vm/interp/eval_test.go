package interp_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// TestHeapWritesAccounting pins the externalized-state counter the
// resilient executor relies on: every OpStoreGlobal bumps HeapWrites,
// while local stores and global loads do not.
func TestHeapWritesAccounting(t *testing.T) {
	res, sink := compile(t, `
int g;
void main() {
	int local = 0;
	for (int i = 0; i < 5; i++) {
		local = local + i;
		g = g + local;
	}
	emit(g);
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	if err := th.RunMain(); err != nil {
		t.Fatal(err)
	}
	// Exactly the five `g = ...` stores (plus the zero-init store if the
	// lowering emits one) externalize state; loop-local writes never do.
	if th.HeapWrites < 5 || th.HeapWrites > 6 {
		t.Errorf("HeapWrites = %d, want 5 or 6 (five stores to g)", th.HeapWrites)
	}

	// A read-only thread over the same env externalizes nothing.
	res2, sink2 := compile(t, `
int g = 3;
void main() {
	int x = g + g;
	emit(x);
}`)
	env2 := interp.NewEnv(res2.Prog, builtinsFor(sink2))
	th2 := interp.NewThread(env2)
	if err := th2.RunMain(); err != nil {
		t.Fatal(err)
	}
	if th2.HeapWrites != 0 {
		t.Errorf("read-only main: HeapWrites = %d, want 0", th2.HeapWrites)
	}
}

// TestRuntimeErrorCarriesPosition drives a division by zero through the
// full lower-then-execute path: the operator's error must surface from RunMain
// prefixed with the source position of the faulting instruction.
func TestRuntimeErrorCarriesPosition(t *testing.T) {
	res, sink := compile(t, `
void main() {
	for (int i = 2; i >= 0; i--) {
		emit(6 / i);
	}
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	err := interp.NewThread(env).RunMain()
	if err == nil {
		t.Fatal("division by zero must fail the run")
	}
	if !strings.Contains(err.Error(), "division by zero") || !strings.Contains(err.Error(), "4:") {
		t.Errorf("err = %v, want division-by-zero at line 4", err)
	}
	// The iterations before the fault completed and emitted.
	if len(*sink) != 2 || (*sink)[0] != 3 || (*sink)[1] != 6 {
		t.Errorf("sink = %v, want [3 6]", *sink)
	}
}

// TestBuiltinErrorPropagates verifies an error returned by a builtin
// aborts execution and reaches the caller unwrapped.
func TestBuiltinErrorPropagates(t *testing.T) {
	res, _ := compile(t, `
void main() {
	for (int i = 0; i < 4; i++) {
		emit(heavy(i));
	}
}`)
	sentinel := errors.New("device saturated")
	calls := 0
	fns := map[string]interp.BuiltinFn{
		"emit": func(args []value.Value) (value.Value, int64, error) {
			return value.Void(), 1, nil
		},
		"heavy": func(args []value.Value) (value.Value, int64, error) {
			calls++
			if calls == 3 {
				return value.Value{}, 0, sentinel
			}
			return value.Int(args[0].AsInt()), 1, nil
		},
	}
	err := interp.NewThread(interp.NewEnv(res.Prog, fns)).RunMain()
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the builtin's sentinel", err)
	}
	if calls != 3 {
		t.Errorf("heavy called %d times, want 3 (abort at the failing call)", calls)
	}
}

// TestExecArityMismatch checks the argument-count guard on direct
// function invocation.
func TestExecArityMismatch(t *testing.T) {
	res, sink := compile(t, `
int twice(int n) { return n + n; }
void main() { emit(twice(2)); }`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	if _, err := th.CallByName("twice", nil); err == nil || !strings.Contains(err.Error(), "expects 1 args") {
		t.Errorf("err = %v, want arity mismatch", err)
	}
	if _, err := th.CallByName("twice", []value.Value{value.Int(1), value.Int(2)}); err == nil {
		t.Error("surplus arguments must be rejected")
	}
	if rets, err := th.CallByName("twice", []value.Value{value.Int(21)}); err != nil || rets[0].AsInt() != 42 {
		t.Errorf("twice(21) = %v, %v", rets, err)
	}
}

// TestInterceptorErrorAborts verifies an interceptor's error takes the
// same abort path as a callee failure.
func TestInterceptorErrorAborts(t *testing.T) {
	res, sink := compile(t, `
void main() {
	for (int i = 0; i < 4; i++) { emit(i); }
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	th.Interceptor = func(tt *interp.Thread, in *ir.Instr, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error) {
		if in.Name == "emit" && args[0].AsInt() == 2 {
			return nil, fmt.Errorf("vetoed at %d", args[0].AsInt())
		}
		return invoke()
	}
	err := th.RunMain()
	if err == nil || !strings.Contains(err.Error(), "vetoed at 2") {
		t.Errorf("err = %v, want interceptor veto", err)
	}
	if len(*sink) != 2 {
		t.Errorf("sink = %v, want the two pre-veto emits", *sink)
	}
}

// recordingTracer captures the event stream the sanitizer hangs off.
type recordingTracer struct {
	events []string
}

func (r *recordingTracer) TraceGlobal(tid int, name string, write bool) {
	kind := "load"
	if write {
		kind = "store"
	}
	r.events = append(r.events, fmt.Sprintf("%s:%s", kind, name))
}

func (r *recordingTracer) TraceBuiltin(tid int, name string, args []value.Value) {
	r.events = append(r.events, fmt.Sprintf("call:%s/%d", name, len(args)))
}

// TestTracerEventStream pins the tracer hook points: every global load,
// global store, and builtin call is observed in execution order, and
// tracing leaves cost and results untouched.
func TestTracerEventStream(t *testing.T) {
	src := `
int g;
void main() {
	g = 7;
	emit(g);
}`
	res, sink := compile(t, src)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	plain := interp.NewThread(env)
	if err := plain.RunMain(); err != nil {
		t.Fatal(err)
	}

	res2, sink2 := compile(t, src)
	env2 := interp.NewEnv(res2.Prog, builtinsFor(sink2))
	traced := interp.NewThread(env2)
	tr := &recordingTracer{}
	traced.Tracer = tr
	if err := traced.RunMain(); err != nil {
		t.Fatal(err)
	}
	want := []string{"store:g", "load:g", "call:emit/1"}
	if len(tr.events) != len(want) {
		t.Fatalf("events = %v, want %v", tr.events, want)
	}
	for i, e := range want {
		if tr.events[i] != e {
			t.Errorf("event[%d] = %s, want %s", i, tr.events[i], e)
		}
	}
	if traced.Cost != plain.Cost {
		t.Errorf("tracing changed cost: %d vs %d", traced.Cost, plain.Cost)
	}
	if (*sink2)[0] != (*sink)[0] {
		t.Errorf("tracing changed output: %v vs %v", *sink2, *sink)
	}
}
