package builtins

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/effects"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// renderRegistry renders every builtin's signature, purity, effect
// declaration and conservative declaration, one line per builtin in name
// order.
func renderRegistry(w *World) string {
	sigs, effs, cons := w.Sigs(), w.EffectTable(), w.ConservativeEffectTable()
	names := make([]string, 0, len(sigs))
	for n := range sigs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		s, d, c := sigs[n], effs[n], cons[n]
		fmt.Fprintf(&b, "%s %v %v pure=%v reads=%v writes=%v keyed=%v inst=%v allocs=%v cons.reads=%v cons.writes=%v\n",
			n, s.Params, s.Result, s.Pure, d.Reads, d.Writes, d.KeyedBy, d.InstanceBy, d.Allocates, c.Reads, c.Writes)
	}
	return b.String()
}

// TestRegistryGolden: the signatures, Pure flags and effect declarations
// match the committed list (testdata/registry.golden), which was
// rendered from the per-world registration the registry replaced.
func TestRegistryGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/registry.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRegistry(NewWorld()); got != string(want) {
		t.Errorf("registry differs from testdata/registry.golden:\n%s", got)
	}
	if len(registry) != strings.Count(string(want), "\n") {
		t.Errorf("registry has %d builtins, golden list %d", len(registry), strings.Count(string(want), "\n"))
	}
}

// TestEffectfulFromTable: Effectful names exactly the builtins whose
// declarations write.
func TestEffectfulFromTable(t *testing.T) {
	w := NewWorld()
	eff := w.Effectful()
	for name, d := range w.EffectTable() {
		if eff[name] != (len(d.Writes) > 0) {
			t.Errorf("Effectful[%s] = %v with writes %v", name, eff[name], d.Writes)
		}
	}
	if len(eff) == 0 || eff["iset_intersect_size"] || !eff["print_str"] {
		t.Errorf("Effectful = %v", eff)
	}
}

// TestWorldIsolation: side effects through one world's Fns are invisible
// to a second world and to a clone, and a clone's Fns act on the clone.
func TestWorldIsolation(t *testing.T) {
	w1, w2, ref := NewWorld(), NewWorld(), NewWorld()
	f1, f2 := w1.Fns(), w2.Fns()
	run := func(f map[string]interp.BuiltinFn, name string, args ...value.Value) value.Value {
		t.Helper()
		v, _, err := f[name](args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	run(f1, "print_str", value.Str("one"))
	first1 := run(f1, "rng_int")
	vec := run(f1, "vec_new")
	run(f1, "vec_push", vec, value.Int(7))

	if len(w2.Console) != 0 {
		t.Errorf("w2 console = %v", w2.Console)
	}
	if got, want := run(f2, "rng_int"), run(ref.Fns(), "rng_int"); !got.Equal(want) {
		t.Errorf("w2 first draw %v, fresh world %v: w1's draw leaked", got, want)
	}
	if !first1.Equal(run(NewWorld().Fns(), "rng_int")) {
		t.Error("w1 first draw differs from a fresh world's")
	}
	if _, _, err := f2["vec_len"]([]value.Value{vec}); err == nil {
		t.Error("w2 sees w1's vector")
	}

	c := w1.Clone()
	fc := c.Fns()
	run(f1, "print_str", value.Str("after-clone"))
	run(f1, "vec_push", vec, value.Int(8))
	if len(c.Console) != 1 || c.Console[0] != "one" {
		t.Errorf("clone console = %v, want [one]", c.Console)
	}
	if n := run(fc, "vec_len", vec).AsInt(); n != 1 {
		t.Errorf("clone vector length %d, want 1", n)
	}
	run(fc, "print_str", value.Str("clone"))
	run(fc, "vec_push", vec, value.Int(9))
	if len(w1.Console) != 2 || w1.Console[1] != "after-clone" {
		t.Errorf("w1 console = %v", w1.Console)
	}
	if len(c.Console) != 2 || c.Console[1] != "clone" {
		t.Errorf("clone Fns did not act on the clone: %v", c.Console)
	}
	if got := w1.VectorContents(int(vec.AsInt())); strings.Join(got, ",") != "7,8" {
		t.Errorf("w1 vector = %v", got)
	}
	if got := c.VectorContents(int(vec.AsInt())); strings.Join(got, ",") != "7,9" {
		t.Errorf("clone vector = %v", got)
	}
	if !run(fc, "rng_int").Equal(run(f1, "rng_int")) {
		t.Error("clone and original disagree on the next draw from equal seeds")
	}
}

// TestTablesAreFresh: mutating what Sigs, EffectTable,
// ConservativeEffectTable and Effectful return changes nothing the next
// call returns, and appending to a returned declaration's slices cannot
// write into the registry.
func TestTablesAreFresh(t *testing.T) {
	w := NewWorld()
	before := renderRegistry(w)

	sigs := w.Sigs()
	delete(sigs, "print_str")
	sigs["iabs"].Pure = false
	sigs["itof"].Name = "renamed"
	_ = append(sigs["bitmap_set"].Params, 99)

	effs := w.EffectTable()
	delete(effs, "print_str")
	d := effs["fclose"]
	_ = append(d.Reads, effects.TagLoc("leak"))
	_ = append(d.Writes, effects.TagLoc("leak"))
	effs["fclose"] = effects.Decl{}

	cons := w.ConservativeEffectTable()
	c := cons["rng_int"]
	_ = append(c.Reads, effects.TagLoc("leak"))
	_ = append(c.Writes, effects.TagLoc("leak"))
	delete(cons, "rng_int")

	eff := w.Effectful()
	eff["iabs"] = true
	delete(eff, "print_str")

	if after := renderRegistry(NewWorld()); after != before {
		t.Errorf("tables changed after mutating returned copies:\n%s", after)
	}
	if e := w.Effectful(); e["iabs"] || !e["print_str"] {
		t.Error("Effectful aliases its previous result")
	}
	if _, ok := w.Fns()["print_str"]; !ok {
		t.Error("Fns lost print_str")
	}
}

var worldSink *World

// TestNewWorldAllocs: a world allocates only its own state — the
// registry is built once per process.
func TestNewWorldAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { worldSink = NewWorld() })
	if allocs > 8 {
		t.Errorf("NewWorld allocates %v times, want <= 8", allocs)
	}
}

// BenchmarkNewWorld times building a world and binding its builtins, as
// every simulated run does.
func BenchmarkNewWorld(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWorld()
		if len(w.Fns()) != len(registry) {
			b.Fatal("Fns incomplete")
		}
	}
}
