package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/analysis"
	"repro/internal/builtins"
	"repro/internal/effects"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/types"
	"repro/internal/workloads"
)

// compile-vet: one job is one commsetvet invocation on a seeded draw from
// the workloads' annotated variants and the analyzer's precision corpus.
// The job runs the compiler stages, then one analysis.Run with every check
// family and the entry's Privatize flag, and checks the entry's pins: a
// corpus entry's Expect/Forbid/Clean/Commutes/Refutes directives, or a
// workload variant's published annotations drawing no warning. A lost pin
// fails the job. Nothing is simulated.
//
// The traced run adds an untimed breakdown over the canonical window: each
// job's entry is compiled again, every loop's PDG + Algorithm 1 and
// schedules are built on their own, and the analyzer runs once per family,
// so the loop analysis, the transform and each family get their own spans.

// vetEntry is one source of the draw pool.
type vetEntry struct {
	name   string
	src    string
	corpus *analysis.CorpusEntry // nil for a workload variant
}

type vetBench struct {
	stream *stream
	pool   []vetEntry
	sigs   map[string]*types.Sig
	eff    effects.Table
}

func setupVet(tr *tracer, seed uint64) (benchWorkload, error) {
	b := &vetBench{}
	w := builtins.NewWorld()
	b.sigs, b.eff = w.Sigs(), w.EffectTable()
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			b.pool = append(b.pool, vetEntry{name: fmt.Sprintf("%s[%s]", wl.Name, v.Name), src: v.Source})
		}
	}
	corpus := analysis.Corpus()
	for i := range corpus {
		b.pool = append(b.pool, vetEntry{name: corpus[i].Name + ".mc", src: corpus[i].Source, corpus: &corpus[i]})
	}
	b.stream = newStream(seed, "compile-vet", len(b.pool))
	// Every source of the pool must compile, so a job can only fail on the
	// analyzer's verdicts.
	for _, e := range b.pool {
		if _, err := compileStages(tr, e.name, e.src, b.sigs, b.eff); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *vetBench) job(tr *tracer, i int) jobOut {
	e := b.pool[b.stream.pick(i)]
	out := jobOut{key: e.name, label: e.name}
	c, err := compileStages(tr, e.name, e.src, b.sigs, b.eff)
	if err != nil {
		out.err = err
		return out
	}
	diags, err := runVet(tr, c, e.privatize())
	if err != nil {
		out.err = fmt.Errorf("%s: %w", e.name, err)
		return out
	}
	var bad []string
	if e.corpus != nil {
		bad = e.corpus.CheckCorpus(diags)
	} else {
		for i := range diags.Diags {
			if diags.Diags[i].Sev >= source.SevWarning {
				bad = append(bad, diags.Diags[i].Error())
			}
		}
	}
	if len(bad) > 0 {
		out.err = fmt.Errorf("%s: lost pin: %s", e.name, bad[0])
	}
	h := fnv.New64a()
	for i := range diags.Diags {
		fmt.Fprintln(h, diags.Diags[i].Error())
	}
	out.digest = fmt.Sprintf("%s diags=%d %016x", e.name, len(diags.Diags), h.Sum64())
	return out
}

func (e vetEntry) privatize() bool { return e.corpus != nil && e.corpus.Privatize }

// breakdown repeats job i's work layer by layer: the compiler stages, the
// analysis and schedules of every loop, and one analysis.Run per family.
func (b *vetBench) breakdown(tr *tracer, i int) error {
	e := b.pool[b.stream.pick(i)]
	c, err := compileStages(tr, e.name, e.src, b.sigs, b.eff)
	if err != nil {
		return err
	}
	if _, err := analyzeAll(tr, c); err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	if err := vetFamilies(tr, c, e.privatize()); err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	return nil
}

// analyzeAll analyzes every recorded loop of every function and generates
// its schedules, returning the number of schedules.
func analyzeAll(tr *tracer, c *pipeline.Compiled) (int, error) {
	n := 0
	for _, lu := range c.Low.Loops {
		la, err := analyzeLoop(tr, c, lu.Func, lu.Header)
		if err != nil {
			return 0, err
		}
		n += len(schedules(tr, la, nil, maxThreads))
	}
	return n, nil
}

func (b *vetBench) round() int { return len(b.pool) }
