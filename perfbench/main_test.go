package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The benchmark times fresh set-ups by running its own executable with
// --setup-only; under test that executable is the test binary.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--setup-only") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// shortRun runs a workload traced with a pass shorter than its canonical
// window, so each pass runs exactly the window.
func shortRun(t *testing.T, name string, seed uint64) *report {
	t.Helper()
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			rep, err := runWorkload(&workloadDefs[i], "", seed, 0.001, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
	}
	t.Fatalf("no workload %s", name)
	return nil
}

// Two traced runs of one seed agree on the digest, the virtual-time
// metrics and every exact counter; no job fails.
func TestSameSeedRepeatsExactly(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			a, b := shortRun(t, def.name, 7), shortRun(t, def.name, 7)
			for _, rep := range []*report{a, b} {
				for _, ps := range []*passSummary{rep.Untraced, rep.Traced} {
					if ps.Failed != 0 {
						t.Fatalf("%d jobs failed: %v", ps.Failed, ps.FirstErrors)
					}
				}
				if !rep.Bypass.Held || rep.BreakdownErr != "" {
					t.Errorf("bypass check %s; breakdown error %q", rep.Bypass, rep.BreakdownErr)
				}
				if rep.Untraced.Digest != rep.Traced.Digest {
					t.Errorf("traced pass digest %s differs from untraced %s", rep.Traced.Digest, rep.Untraced.Digest)
				}
			}
			if a.Untraced.Digest != b.Untraced.Digest {
				t.Errorf("digest %s vs %s", a.Untraced.Digest, b.Untraced.Digest)
			}
			if a.Untraced.VTSpeedup != b.Untraced.VTSpeedup || a.Untraced.VTSLOFrac != b.Untraced.VTSLOFrac {
				t.Errorf("virtual-time metrics differ: %v/%v vs %v/%v",
					a.Untraced.VTSpeedup, a.Untraced.VTSLOFrac, b.Untraced.VTSpeedup, b.Untraced.VTSLOFrac)
			}
			if !reflect.DeepEqual(a.Exact, b.Exact) {
				t.Errorf("exact counters differ:\n%v\n%v", a.Exact, b.Exact)
			}
			if !reflect.DeepEqual(a.BreakdownExact, b.BreakdownExact) {
				t.Errorf("breakdown exact counters differ:\n%v\n%v", a.BreakdownExact, b.BreakdownExact)
			}
			if !reflect.DeepEqual(a.SetupExact, b.SetupExact) {
				t.Errorf("set-up exact counters differ:\n%v\n%v", a.SetupExact, b.SetupExact)
			}
			if len(a.Exact) == 0 || len(a.SetupExact) == 0 {
				t.Errorf("no exact counters recorded")
			}
		})
	}
}

// A different seed draws a different job sequence.
func TestSeedChangesDraw(t *testing.T) {
	for _, def := range workloadDefs {
		a, b := shortRun(t, def.name, 1), shortRun(t, def.name, 2)
		if a.Untraced.Digest == b.Untraced.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", def.name, a.Untraced.Digest)
		}
	}
}

// The result line carries exactly the metrics BENCHMARK.json declares.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defs []string
	for _, d := range workloadDefs {
		defs = append(defs, d.name)
	}
	if !reflect.DeepEqual(names, defs) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark defines %v", names, defs)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		dir := t.TempDir()
		args := []string{"--workload", "compile-vet", "--seed", "3", "--seconds", "0.001", "--trace", trace,
			"--out", dir, "--spec", "../BENCHMARK.json"}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("trace %s metrics:\n got %v\nwant %v", trace, got, exp)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cells", "--seconds", "0"},
		{"--workload", "cells", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// Tail picks the highest level with at least ten samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if pct, _, beyond := tail(xs, 0.99); pct != 0.99 || beyond != 10 {
		t.Errorf("1000 samples: p%g with %d beyond, want p99 with 10", 100*pct, beyond)
	}
	if pct, _, beyond := tail(xs[:500], 0.99); pct != 0.95 || beyond != 25 {
		t.Errorf("500 samples: p%g with %d beyond, want p95 with 25", 100*pct, beyond)
	}
}

// blockSeries keeps each full block's statistics, drops a partial last
// block, and treats a pass shorter than one block as one block.
func TestBlockSeries(t *testing.T) {
	b := newBlockSeries(4)
	end := 0.0
	for i, ms := range []float64{1, 2, 3, 4, 10, 20, 30, 40, 99} {
		end += ms / 1000
		b.add(ms, end, i != 5)
	}
	p50, _, _, _, rate := b.stats()
	if len(b.p50s) != 2 || p50 != (2.5+25)/2 {
		t.Errorf("blocks %v, p50 %g", b.p50s, p50)
	}
	if want := (4/0.010 + 3/0.100) / 2; math.Abs(rate-want) > 1e-9 {
		t.Errorf("rate %g, want %g", rate, want)
	}
	short := newBlockSeries(100)
	short.add(2, 0.002, true)
	short.add(4, 0.006, true)
	if p50, _, _, _, _ := short.stats(); p50 != 3 || short.blockJobs != 2 {
		t.Errorf("short pass: p50 %g over %d jobs", p50, short.blockJobs)
	}
}

// The bypass check fails on a sample in a banned package, whatever the
// frame's depth, and on a profile with no samples.
func TestBypassCheckFails(t *testing.T) {
	for _, c := range []struct {
		workload string
		funcs    []string
		held     bool
	}{
		{"compile-vet", []string{"repro/internal/analysis.(*vet).checkRace", "main.main"}, true},
		{"compile-vet", []string{"repro/internal/builtins.ModelOf", "repro/internal/analysis.(*commExec).call"}, true},
		{"compile-vet", []string{"runtime.mallocgc", "repro/internal/vm/interp.(*Thread).Call", "repro/internal/analysis.Run"}, false},
		{"compile-vet", []string{"repro/internal/builtins.(*World).Fns.func3"}, false},
		{"cells", []string{"repro/internal/vm/exec.(*machine).step", "repro/internal/vm/des.(*Sim).Run"}, true},
		{"cells", []string{"repro/internal/cfg.(*Loop).Contains", "repro/internal/vm/exec.(*machine).doallNext"}, true},
		{"cells", []string{"repro/internal/vm/exec.Run", "repro/internal/pdg.Build[go.shape.int]"}, false},
		{"cells", []string{"repro/internal/types.(*checker).expr", "repro/internal/types.Check"}, false},
		{"resilience", []string{"repro/internal/parser.Parse"}, true},
	} {
		res := checkBypass(c.workload, []profileSample{{count: 3, funcs: []string{"main.job"}}, {count: 2, funcs: c.funcs}})
		if res.Held != c.held {
			t.Errorf("%s %v: held %v, want %v (%s)", c.workload, c.funcs, res.Held, c.held, res)
		}
	}
	if res := checkBypass("cells", nil); res.Held {
		t.Errorf("no samples: held")
	}
}

// parseProfile reads the functions of a real CPU profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = spin(x)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var n, inSpin int64
	for _, s := range samples {
		n += s.count
		for _, fn := range s.funcs {
			if fn == "repro/perfbench.spin" {
				inSpin += s.count
				break
			}
		}
	}
	if n == 0 || inSpin*2 < n {
		t.Errorf("%d samples, %d in spin (x=%g)", n, inSpin, x)
	}
}

//go:noinline
func spin(x float64) float64 {
	for i := 0; i < 100000; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}
