package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerRow is one line of the per-workload layer table: a span name's self
// time, calls and self allocation, per job for the timed jobs and the
// breakdown, and per set-up for set-up.
type layerRow struct {
	Layer   string  `json:"layer"`
	Phase   string  `json:"phase"` // "jobs", "breakdown" or "setup"
	Calls   int64   `json:"calls"`
	SelfMs  float64 `json:"self_ms"` // per job, or per set-up
	AllocKB float64 `json:"alloc_kb_per_call"`
	// Per-job distribution of the layer's self time (jobs phase only).
	P50Ms   float64 `json:"self_ms_p50,omitempty"`
	TailPct float64 `json:"self_ms_tail_pct,omitempty"`
	TailMs  float64 `json:"self_ms_tail,omitempty"`
	TailN   int     `json:"self_ms_tail_beyond,omitempty"`
}

// phases are a traced run's three phases. The breakdown is empty on
// workloads that have none.
type phases struct {
	setup, breakdown, jobs *phase
	// jobsN is the number of traced jobs, window the canonical window
	// (the breakdown's job count, and the jobs over which counts run).
	jobsN, window float64
}

// layerTable lists every span name of the three phases. Job-phase rows
// come first; their self times add up to the mean traced job time.
func layerTable(ph *phases) []layerRow {
	var rows []layerRow
	for _, name := range ph.jobs.layerNames() {
		l := ph.jobs.layers[name]
		samples := make([]float64, len(ph.jobs.perJob))
		for j, m := range ph.jobs.perJob {
			samples[j] = float64(m[name]) / 1e6
		}
		row := layerRow{Layer: name, Phase: "jobs", Calls: l.Calls, SelfMs: float64(l.SelfNs) / 1e6 / ph.jobsN}
		if name != layerCall {
			row.AllocKB = float64(l.SelfB) / 1024 / float64(l.Calls)
		}
		row.P50Ms = median(samples)
		row.TailPct, row.TailMs, row.TailN = tail(samples, 0.99)
		rows = append(rows, row)
	}
	for _, p := range []struct {
		name string
		ph   *phase
		per  float64
	}{{"breakdown", ph.breakdown, ph.window}, {"setup", ph.setup, 1}} {
		for _, name := range p.ph.layerNames() {
			l := p.ph.layers[name]
			row := layerRow{Layer: name, Phase: p.name, Calls: l.Calls, SelfMs: float64(l.SelfNs) / 1e6 / p.per}
			if name != layerCall {
				row.AllocKB = float64(l.SelfB) / 1024 / float64(l.Calls)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// pick returns the phase a layer is reported from — the timed jobs when
// it ran there, else the breakdown (compile-vet's loop analysis, schedules
// and single-family analyzer runs), else set-up (the front end on cells
// and resilience, profiling everywhere) — and the number of jobs its times
// are divided by (1 for set-up).
func (ph *phases) pick(names ...string) (*phase, float64) {
	for _, p := range []*phase{ph.jobs, ph.breakdown} {
		for _, n := range names {
			if l := p.layers[n]; l != nil && l.Calls > 0 {
				if p == ph.jobs {
					return p, ph.jobsN
				}
				return p, ph.window
			}
		}
	}
	return ph.setup, 1
}

// perLayerMetrics names every per-layer metric with its unit, in report
// order. BENCHMARK.json lists the same names.
var perLayerMetrics = []struct{ name, unit string }{
	{"parser.ms", "ms"}, {"parser.ast_nodes", "count"},
	{"types.ms", "ms"},
	{"lower.ms", "ms"}, {"lower.ir_instrs", "count"},
	{"commset.ms", "ms"}, {"effects.ms", "ms"},
	{"pipeline.analyze_loops_ms", "ms"},
	{"pdg.nodes", "count"}, {"pdg.edges", "count"}, {"depend.relaxed_edges", "count"},
	{"transform.ms", "ms"}, {"transform.schedules", "count"},
	{"analysis.ms", "ms"}, {"analysis.unsound_ms", "ms"}, {"analysis.race_ms", "ms"}, {"analysis.lint_ms", "ms"},
	{"analysis.commute_ms", "ms"}, {"analysis.diags", "count"},
	{"profile.ms", "ms"}, {"profile.ns_per_cost", "ns"},
	{"builtins.world_ms", "ms"}, {"builtins.worlds", "count"}, {"builtins.calls", "count"},
	{"builtins.call_ns", "ns"}, {"builtins.input_reuse_frac", "ratio"},
	{"exec.run_ms", "ms"}, {"exec.ns_per_cost", "ns"}, {"exec.seq_ns_per_cost", "ns"},
	{"exec.validate_ms", "ms"}, {"exec.auto.calib_ms", "ms"}, {"exec.auto.slices", "count"},
	{"exec.auto.calib_share", "ratio"},
	{"exec.svc_ms", "ms"}, {"exec.svc_ns_per_request", "ns"}, {"exec.svc.shed_frac", "ratio"},
	{"exec.restarts", "count"}, {"exec.steals", "count"}, {"exec.iter_retries", "count"},
	{"exec.attempts", "count"}, {"exec.useful_frac", "ratio"}, {"faults.injected", "count"},
	{"des.handoff_ns", "ns"}, {"des.events_per_s", "1/s"},
	{"go.gc_cpu_frac", "ratio"}, {"go.alloc_mb_per_job", "MB"}, {"harness.self_ms", "ms"},
	{"host.steal_frac", "ratio"}, {"host.wall_job_ms_p50", "ms"}, {"host.wall_jobs_per_s", "1/s"},
	{"host.cpu_job_ms_p50", "ms"}, {"host.cpu_jobs_per_s", "1/s"}, {"host.ref_kernel_ms", "ms"},
	{"parser.alloc_kb", "KB"}, {"types.alloc_kb", "KB"}, {"lower.alloc_kb", "KB"},
	{"commset.alloc_kb", "KB"}, {"effects.alloc_kb", "KB"}, {"pipeline.alloc_kb", "KB"},
	{"transform.alloc_kb", "KB"}, {"analysis.alloc_kb", "KB"}, {"profile.alloc_kb", "KB"},
	{"builtins.alloc_kb", "KB"}, {"exec.alloc_kb", "KB"},
	{"trace.overhead_p50_frac", "ratio"}, {"trace.overhead_tail_frac", "ratio"},
	{"trace.overhead_jobs_per_s_frac", "ratio"}, {"trace.overhead_setup_frac", "ratio"},
	{"trace.overhead_rss_frac", "ratio"},
	{"vt.speedup_geomean", "x"}, {"vt.slo_frac", "ratio"}, {"harness.failed_frac", "ratio"},
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(rep *report, ph *phases, probe desProbeResult) map[string]metric {
	w := ph.window
	v := map[string]float64{}
	setup, jobs := ph.setup, ph.jobs

	// ms reports a layer's self time per job, or per set-up.
	ms := func(layer string) float64 {
		p, per := ph.pick(layer)
		if l := p.layers[layer]; l != nil {
			return float64(l.SelfNs) / 1e6 / per
		}
		return 0
	}
	// cnt reports an exact counter: per job over the canonical window, or
	// per set-up, from the phase the layer ran in.
	cnt := func(counter string, layers ...string) float64 {
		p, _ := ph.pick(layers...)
		if p == setup {
			return float64(setup.counts[counter])
		}
		return float64(p.counts[counter]) / w
	}
	// selfNs reads a phase's self time in a layer.
	selfNs := func(p *phase, layer string) float64 {
		if l := p.layers[layer]; l != nil {
			return float64(l.SelfNs)
		}
		return 0
	}

	for _, l := range []string{layerParser, layerTypes, layerLower, layerCommset, layerEffects, layerTransform, layerProfile} {
		v[l+".ms"] = ms(l)
	}
	v["pipeline.analyze_loops_ms"] = ms(layerAnalyze)
	v["parser.ast_nodes"] = cnt("parser.ast_nodes", layerParser)
	v["lower.ir_instrs"] = cnt("lower.ir_instrs", layerLower)
	v["pdg.nodes"] = cnt("pdg.nodes", layerAnalyze)
	v["pdg.edges"] = cnt("pdg.edges", layerAnalyze)
	v["depend.relaxed_edges"] = cnt("depend.relaxed_edges", layerAnalyze)
	v["transform.schedules"] = cnt("transform.schedules", layerTransform)
	v["analysis.ms"] = ms(layerAnalysis)
	for _, l := range analysisLayers {
		v[l+"_ms"] = ms(l)
	}
	v["analysis.diags"] = cnt("analysis.diags", layerAnalysis)
	v["profile.ns_per_cost"] = ratio(selfNs(setup, layerProfile), float64(setup.totals["profile.cost"]))

	v["builtins.world_ms"] = ms(layerWorld)
	v["builtins.worlds"] = cnt("builtins.worlds", layerWorld)
	v["builtins.calls"] = cnt("builtins.calls", layerCall)
	cp, _ := ph.pick(layerCall)
	if l := cp.layers[layerCall]; l != nil {
		v["builtins.call_ns"] = ratio(float64(l.SelfNs), float64(l.Calls))
	}
	v["builtins.input_reuse_frac"] = rep.Traced.InputReuse

	v["exec.run_ms"] = ms(layerRun)
	v["exec.ns_per_cost"] = ratio(selfNs(jobs, layerRun), float64(rep.Traced.seqCostSum))
	sp, _ := ph.pick(layerSeq)
	v["exec.seq_ns_per_cost"] = ratio(selfNs(sp, layerSeq), float64(sp.totals["exec.seq_cost"]))
	v["exec.validate_ms"] = ms(layerValidate)
	v["exec.auto.calib_ms"] = ms(layerCalib)
	v["exec.auto.slices"] = float64(jobs.counts["exec.auto.slices"]) / w
	if l := jobs.layers[layerCalib]; l != nil {
		v["exec.auto.calib_share"] = ratio(float64(l.InclNs), rep.Traced.jobMsSum*1e6)
	}

	v["exec.svc_ms"] = ms(layerSvc)
	v["exec.svc_ns_per_request"] = ratio(selfNs(jobs, layerSvc), float64(jobs.totals["exec.svc.generated"]))
	v["exec.svc.shed_frac"] = ratio(float64(jobs.counts["exec.svc.shed"]), float64(jobs.counts["exec.svc.generated"]))
	for _, c := range []string{"exec.restarts", "exec.steals", "exec.iter_retries", "exec.attempts", "faults.injected"} {
		v[c] = float64(jobs.counts[c]) / w
	}
	v["exec.useful_frac"] = ratio(float64(jobs.counts["exec.useful"]), float64(jobs.counts["exec.executed"]))

	v["des.handoff_ns"] = probe.handoffNs
	v["des.events_per_s"] = probe.eventsPerS
	v["go.gc_cpu_frac"] = rep.Untraced.GCCPUFrac
	v["go.alloc_mb_per_job"] = rep.Untraced.AllocMB
	v["harness.self_ms"] = selfNs(jobs, layerHarness) / 1e6 / ph.jobsN
	v["host.steal_frac"] = rep.Untraced.StealFrac
	v["host.wall_job_ms_p50"] = rep.Untraced.WallP50Ms
	v["host.wall_jobs_per_s"] = rep.Untraced.WallJobsPerS
	v["host.cpu_job_ms_p50"] = rep.Untraced.CPUP50Ms
	v["host.cpu_jobs_per_s"] = rep.Untraced.CPUJobsPerS
	v["host.ref_kernel_ms"] = rep.Untraced.RefMs

	for _, mod := range []string{"parser", "types", "lower", "commset", "effects", "pipeline", "transform", "analysis", "profile", "builtins", "exec"} {
		var names []string
		for _, p := range []*phase{jobs, ph.breakdown, setup} {
			for name := range p.layers {
				if moduleOf(name) == mod && name != layerCall {
					names = append(names, name)
				}
			}
		}
		p, _ := ph.pick(names...)
		var b, calls float64
		for _, name := range names {
			if l := p.layers[name]; l != nil {
				b += float64(l.SelfB)
				calls += float64(l.Calls)
			}
		}
		v[mod+".alloc_kb"] = ratio(b/1024, calls)
	}

	v["trace.overhead_p50_frac"] = rep.Overhead["job_ms_p50"]
	v["trace.overhead_tail_frac"] = rep.Overhead["job_ms_tail"]
	v["trace.overhead_jobs_per_s_frac"] = rep.Overhead["jobs_per_s"]
	v["trace.overhead_setup_frac"] = rep.Overhead["setup_s"]
	v["trace.overhead_rss_frac"] = rep.Overhead["peak_rss_mb"]
	v["vt.speedup_geomean"] = rep.Untraced.VTSpeedup
	v["vt.slo_frac"] = rep.Untraced.VTSLOFrac
	v["harness.failed_frac"] = rep.Untraced.FailedFrac

	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

func workloadWindow(name string) int {
	for _, d := range workloadDefs {
		if d.name == name {
			return d.window
		}
	}
	return 1
}

// printLayers prints the layer table, the exact counters and the bypass
// check.
func printLayers(w io.Writer, rep *report) {
	fmt.Fprintf(w, "  layer table (self ms per job for jobs and breakdown rows, per set-up for setup rows):\n")
	fmt.Fprintf(w, "    %-24s %-5s %10s %10s %10s %10s %12s\n", "layer", "phase", "calls", "self_ms", "p50_ms", "tail_ms", "alloc_kb/call")
	var sum float64
	for _, r := range rep.Layers {
		tailCol := ""
		if r.Phase == "jobs" {
			sum += r.SelfMs
			tailCol = fmt.Sprintf("%.4f@p%g/%d", r.TailMs, 100*r.TailPct, r.TailN)
		}
		fmt.Fprintf(w, "    %-24s %-5s %10d %10.4f %10.4f %10s %12.2f\n", r.Layer, r.Phase, r.Calls, r.SelfMs, r.P50Ms, tailCol, r.AllocKB)
	}
	mean := rep.Traced.jobMsSum / float64(rep.Traced.Jobs)
	fmt.Fprintf(w, "  layer self time (harness included) %.4f ms of %.4f ms mean traced job time (%.1f%%)\n", sum, mean, 100*ratio(sum, mean))
	if rep.BreakdownErr != "" {
		fmt.Fprintf(w, "  breakdown FAILED: %s\n", rep.BreakdownErr)
	}
	fmt.Fprintf(w, "  bypass check: %s\n", rep.Bypass)
	fmt.Fprintf(w, "  CPU-profile samples of the jobs by package: %s\n", strings.Join(rep.Bypass.Packages, " "))
	for _, c := range []struct {
		what   string
		counts map[string]int64
	}{{"jobs", rep.Exact}, {"breakdown", rep.BreakdownExact}} {
		if len(c.counts) == 0 {
			continue
		}
		var keys []string
		for k := range c.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c.counts[k]))
		}
		fmt.Fprintf(w, "  exact counters of the %s over the first %d jobs: %s\n", c.what, workloadWindow(rep.Workload), strings.Join(parts, " "))
	}
}
