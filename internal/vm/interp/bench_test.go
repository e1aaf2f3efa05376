package interp_test

import (
	"testing"

	"repro/internal/vm/interp"
)

// benchSrc exercises the shapes the compiled engine targets: global
// read-modify-writes, local arithmetic, and user-function and builtin
// calls inside a loop.
const benchSrc = `
int g = 0;
int acc(int x) { g = g + x; return g; }
void main() {
	int s = 0;
	for (int i = 0; i < 200; i++) {
		s = s + acc(i);
		s = heavy(s) % 1000;
		g = g + s;
	}
	emit(s);
}`

// BenchmarkRunCompiled times whole-program execution on the compiled
// engine: pre-compiled per-function code, slot-indexed globals,
// segment-summed costs. Each iteration gets a fresh environment; the
// program's compiled code persists across iterations, as it does across
// campaign cells.
func BenchmarkRunCompiled(b *testing.B) {
	res, sink := compile(b, benchSrc)
	fns := builtinsFor(sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := interp.NewEnv(res.Prog, fns)
		if err := interp.NewThread(env).RunMain(); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestUserCallZeroAlloc pins the scratch-arena discipline for
// user-function calls: in a steady-state loop, a call, its frame and its
// returned results allocate nothing (arguments and results are carved
// from the thread's arena, frames come from the function's pool).
func TestUserCallZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	res, _ := compile(t, `
int twice(int x) { return x + x; }
int inc2(int x) { return twice(x) + 1; }
void main() {
	int s = 0;
	for (int i = 0; i < 100; i++) {
		s = (s + inc2(i)) % 1000;
	}
}`)
	th := interp.NewThread(interp.NewEnv(res.Prog, nil))
	if err := th.RunMain(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := th.RunMain(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per run of 200 user-function calls, want 0", allocs)
	}
}
