package main

import (
	"fmt"

	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/vm/interp"
	"repro/internal/workloads"
)

// cells: one job is one schedule-campaign cell — program × variant ×
// applicable transform × sync × threads, half at the paper's fixed
// policies and half auto-tuned. Every variant is compiled, profiled,
// vetted and baselined in set-up; a job builds a fresh world, runs the
// cell on the simulator and validates it against the sequential world.

// cellSpec is one cell: a program's schedule under a sync mode.
type cellSpec struct {
	prog *simProgram
	kind transform.Kind
	sync exec.SyncMode
}

// Even jobs run at the fixed policies and odd jobs auto-tuned; each half
// deals every cell once per round, so the costly calibrated half is
// exactly half of every run. A cell's thread count rotates through
// cellThreads from round to round, so every round has each thread count
// on a third of the cells.
type cellsBench struct {
	cells        []cellSpec
	fixed, tuned *stream
}

var cellThreads = []int{2, 4, 8}

func setupCells(tr *tracer, seed uint64) (benchWorkload, error) {
	b := &cellsBench{}
	for _, wl := range workloads.All() {
		variants := []string{}
		for _, v := range wl.Variants {
			variants = append(variants, v.Name)
		}
		variants = append(variants, "noannot")
		for _, variant := range variants {
			p, err := compileSim(tr, wl, variant, wl.Setup, variant != "noannot")
			if err != nil {
				return nil, err
			}
			b.cells = append(b.cells, cellSpecs(p)...)
		}
	}
	b.fixed = newStream(seed, "cells/fixed", len(b.cells))
	b.tuned = newStream(seed, "cells/auto", len(b.cells))
	return b, nil
}

// cellSpecs lists a program's cells the way the schedule campaign picks
// its Figure 6 series: every sync mode for the annotated DOALL, the
// workload's headline mechanisms for the other transforms and variants,
// and Spin for the non-COMMSET baseline.
func cellSpecs(p *simProgram) []cellSpec {
	var out []cellSpec
	for _, kind := range []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP} {
		if p.schedule(kind) == nil {
			continue
		}
		syncs := p.wl.Syncs()
		switch {
		case p.variant == "noannot":
			syncs = []exec.SyncMode{exec.SyncSpin}
		case kind != transform.DOALL || p.variant != "comm":
			syncs = []exec.SyncMode{exec.SyncSpin}
			if p.wl.LibOK {
				syncs = append(syncs, exec.SyncLib)
			}
		}
		for _, m := range syncs {
			out = append(out, cellSpec{prog: p, kind: kind, sync: m})
		}
	}
	return out
}

func (b *cellsBench) job(tr *tracer, i int) jobOut {
	auto := i%2 == 1
	st := b.fixed
	if auto {
		st = b.tuned
	}
	k := st.pick(i / 2)
	cell := b.cells[k]
	threads := cellThreads[(i/2/len(b.cells)+k)%len(cellThreads)]
	p := cell.prog
	out := jobOut{
		key:     p.name,
		label:   fmt.Sprintf("%s %v/%v/%dT auto=%v", p.name, cell.kind, cell.sync, threads, auto),
		seqCost: p.seqCost,
	}

	w := p.world(tr)
	cfg := p.config(tr, w)
	if auto {
		cfg.Auto = &exec.AutoOptions{
			Fresh: func() map[string]interp.BuiltinFn { return fns(tr, p.world(tr)) },
			// Slices run one after another on the benchmark's single
			// client, each inside its own span.
			Parallel: func(n int, fn func(i int) error) error {
				for s := 0; s < n; s++ {
					var err error
					tr.do(layerCalib, func() { err = fn(s) })
					tr.count("exec.auto.slices", 1)
					if err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	var res *exec.Result
	var err error
	tr.do(layerRun, func() { res, err = exec.Run(cfg, p.la, p.schedule(cell.kind), cell.sync, threads) })
	if err != nil {
		out.err = fmt.Errorf("%s: %w", out.label, err)
		return out
	}
	ordered := cell.kind == transform.DSWP
	tr.do(layerValidate, func() { err = p.wl.Validate(p.seqWorld, w, ordered) })
	if err != nil {
		out.err = fmt.Errorf("%s: validate: %w", out.label, err)
		return out
	}
	out.seqVT, out.parVT = p.seqCost, res.VirtualTime
	tr.count("exec.vtime", res.VirtualTime)
	out.digest = fmt.Sprintf("%s vt=%d tune=%v out=%016x", out.label, res.VirtualTime, res.Tune, outputHash(w, ordered))
	return out
}

// round is the jobs in which every cell runs at every thread count, fixed
// and auto-tuned: three rounds of the streams.
func (b *cellsBench) round() int { return len(cellThreads) * 2 * len(b.cells) }
