// Command perfbench is the repository's benchmark. It times the host CPU
// time of the COMMSET stack — compile, vet, simulate — from outside,
// calling each layer's public functions itself, on one of three seeded
// workloads:
//
//	go run . --workload cells --seed 1 --seconds 30 --trace 0
//
// One client runs jobs closed-loop in a single process: the next job starts
// when the previous one has finished and been validated. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it runs the same jobs
// untraced and then traced, half the time each, profiles them for the
// bypass check, prints the per-layer metrics, and writes the span file and
// the layer table under --out. The last line of standard output is one
// JSON object: correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	osexec "os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/builtins"
)

// benchWorkload is a set-up workload: job i runs the i-th job of the
// seeded stream and validates it.
type benchWorkload interface {
	job(tr *tracer, i int) jobOut
	// round is the number of jobs in which the stream deals every job
	// kind once.
	round() int
}

// breakdowner is a workload whose traced run also repeats each job of the
// canonical window, untimed, with finer spans than the job itself makes.
type breakdowner interface {
	breakdown(tr *tracer, i int) error
}

// jobOut is one job's outcome.
type jobOut struct {
	key    string // program-and-inputs key (input reuse)
	label  string
	digest string // the job's virtual times and outputs, canonically
	err    error  // error, stall or failed validation

	seqVT, parVT   int64 // batch jobs: sequential and parallel virtual time
	svcGen, svcSLO int   // service jobs: requests generated, completed within SLO
	seqCost        int64 // batch jobs: the program's sequential virtual cost (exec.ns_per_cost)
}

// workloadDef defines one workload. Why each workload was chosen is
// recorded once, in BENCHMARK.json's workloads list, and printed by every
// run.
type workloadDef struct {
	name string
	// window is the canonical job window: the first window jobs always
	// run, and the digest, the virtual-time metrics and the exact counters
	// are taken over them, so they repeat exactly per seed.
	window int
	setup  func(tr *tracer, seed uint64) (benchWorkload, error)
}

var workloadDefs = []workloadDef{
	{name: "cells", window: 48, setup: setupCells},
	{name: "compile-vet", window: 200, setup: setupVet},
	{name: "resilience", window: 48, setup: setupResilience},
}

// tailMax is the percentile job_ms_tail reports when at least ten jobs of
// a timing block lie beyond it (a lower one otherwise).
const tailMax = 0.95

// rssWindow is the window peak_rss_mb takes each high-water mark over.
// The 75th percentile of the windows' marks sits in the upper part of a
// memory sawtooth (resilience's memo caches fill and reset every few
// seconds), while a transient spike (compile-vet has one-window jumps of
// up to 12 MB) moves a single window's mark, not the percentile.
const rssWindow = 500 * time.Millisecond

// profileSeconds is how long a traced run profiles the job stream for the
// bypass check: about 200 samples at the profiler's 100 Hz.
const profileSeconds = 2.0

// setup_s is the median over the run's own set-up and set-ups in fresh
// processes of this program, run in batches of about setupBatch every
// setupEvery of the untraced pass (at least minSetupReps in all), so that
// they sample the host over the same stretch of time as the timed jobs: a
// set-up takes 3 ms (compile-vet) to 0.15 s (cells), and this shared host
// switches between a fast and a slow mode every few tenths of a second.
// Repeating the set-up in the benchmark's own process instead would time
// it against a heap that grows with every repetition, because the
// interpreter's code cache keeps every program a set-up compiles.
const (
	setupEvery   = 2 * time.Second
	setupBatch   = 250 * time.Millisecond
	minSetupReps = 15
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cells, compile-vet or resilience")
	seed := fs.Uint64("seed", 1, "workload seed: picks the job sequence and the generated inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: run the jobs untraced, then traced, and report per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for the result, span and layer-table files")
	spec := fs.String("spec", "BENCHMARK.json", "the benchmark's definition, which records why each workload was chosen")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once and print its CPU and wall-clock seconds (the benchmark runs itself so to time fresh set-ups)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *name {
			def = &workloadDefs[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload cells|compile-vet|resilience, --seconds > 0 and --trace 0|1")
		return 2
	}
	// One client needs one P. With more, a stop-the-world GC waits for
	// every P's thread, and on a shared VM whose other vCPU is preempted
	// by the hypervisor that wait stalls the job for milliseconds.
	runtime.GOMAXPROCS(1)
	if *setupOnly {
		_, cpu, wall, err := timeSetup(def, newTracer(false), *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, cpu, wall)
		return 0
	}
	why, err := workloadWhy(*spec, def.name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := runWorkload(def, why, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeFiles(*outDir, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured.
type report struct {
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// SetupS are the set-ups' process CPU seconds: the run's own, then
	// those in fresh processes.
	SetupS       []float64          `json:"setup_s"`
	SetupWallS   []float64          `json:"setup_wall_s"`
	TracedSetupS float64            `json:"traced_setup_s,omitempty"`
	Untraced     *passSummary       `json:"untraced"`
	Traced       *passSummary       `json:"traced,omitempty"`
	Overhead     map[string]float64 `json:"tracing_overhead,omitempty"`
	Exact        map[string]int64   `json:"exact_counters,omitempty"`
	SetupExact   map[string]int64   `json:"setup_exact_counters,omitempty"`
	// BreakdownExact are the breakdown's counters over the canonical window.
	BreakdownExact map[string]int64 `json:"breakdown_exact_counters,omitempty"`
	Layers         []layerRow       `json:"layers,omitempty"`
	Bypass         *bypassResult    `json:"bypass_check,omitempty"`
	// BreakdownErr is the first error of the breakdown, which repeats jobs
	// that passed.
	BreakdownErr string `json:"breakdown_error,omitempty"`

	result result
	spans  []span
}

// passSummary is one timed pass over the job stream.
type passSummary struct {
	Jobs     int     `json:"jobs"`
	Failed   int     `json:"failed"`
	ElapsedS float64 `json:"elapsed_s"`
	CPUS     float64 `json:"cpu_s"`
	// StealFrac is the share of the pass's wall-clock the process did not
	// run: 1 - CPUS/ElapsedS (the benchmark never sleeps or waits).
	StealFrac float64 `json:"steal_frac"`
	// The timing metrics are process CPU time scaled by Scale (see
	// refNominal), as medians over blocks of BlockJobs consecutive jobs
	// (see blockSeries); the CPU ones are the same statistics unscaled,
	// and the Wall ones over wall-clock.
	BlockJobs int     `json:"block_jobs"`
	Blocks    int     `json:"blocks"`
	P50Ms     float64 `json:"job_ms_p50"`
	TailPct   float64 `json:"job_ms_tail_pct"`
	TailMs    float64 `json:"job_ms_tail"`
	TailN     int     `json:"job_ms_tail_beyond"`
	JobsPerS  float64 `json:"jobs_per_s"`
	// RefMs is the median of the reference kernel's RefRuns CPU times in
	// the pass, and Scale is refNominal over it.
	RefMs        float64 `json:"ref_kernel_ms"`
	RefRuns      int     `json:"ref_kernel_runs"`
	Scale        float64 `json:"scale"`
	CPUP50Ms     float64 `json:"cpu_job_ms_p50"`
	CPUTailMs    float64 `json:"cpu_job_ms_tail"`
	CPUJobsPerS  float64 `json:"cpu_jobs_per_s"`
	WallP50Ms    float64 `json:"wall_job_ms_p50"`
	WallTailMs   float64 `json:"wall_job_ms_tail"`
	WallJobsPerS float64 `json:"wall_jobs_per_s"`
	GCCPUFrac    float64 `json:"gc_cpu_frac"`
	// PeakRSSMB is the 75th percentile over the pass's rssWindow windows
	// of each window's resident-set high-water mark.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb_per_job"`
	// Digest covers every job of the canonical window: labels, virtual
	// times and outputs.
	Digest      string   `json:"digest"`
	VTSpeedup   float64  `json:"vt_speedup_geomean"`
	VTSLOFrac   float64  `json:"vt_slo_frac"`
	InputReuse  float64  `json:"input_reuse_frac"`
	FailedFrac  float64  `json:"failed_frac"`
	FirstErrors []string `json:"first_errors,omitempty"`

	jobMsSum   float64 // wall-clock of all jobs
	seqCostSum int64   // the batch jobs' sequential virtual cost
}

// workloadWhy reads why a workload was chosen from the benchmark's
// definition.
func workloadWhy(path, name string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range spec.Workloads {
		if w.Name == name {
			return w.Why, nil
		}
	}
	return "", fmt.Errorf("%s does not list workload %s", path, name)
}

func runWorkload(def *workloadDef, why string, seed uint64, seconds float64, traced bool, stdout io.Writer) (*report, error) {
	rep := &report{
		Workload: def.name, Why: why, Seed: seed, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	fmt.Fprintf(stdout, "perfbench %s seed %d: nproc %d GOMAXPROCS %d %s, %g s timed, trace %v\n",
		def.name, seed, rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion, seconds, traced)
	fmt.Fprintf(stdout, "  why: %s\n", why)

	off := newTracer(false)
	on := newTracer(true)
	on.window = def.window
	setupPhase, jobsPhase, breakdownPhase := newPhase(), newPhase(), newPhase()
	wl, cpu, wall, err := timeSetup(def, off, seed)
	if err != nil {
		return nil, err
	}
	rep.SetupS, rep.SetupWallS = []float64{cpu}, []float64{wall}

	// A traced run makes two passes, untraced then traced, each half as
	// long, so it lasts as long as an untraced run.
	pass := seconds
	if traced {
		pass = seconds / 2
	}
	setups, err := newSetupSampler(def.name, seed, rep)
	if err != nil {
		return nil, err
	}
	rep.Untraced = timedPass(def, wl, off, pass, setups)
	if err := setups.topUp(); err != nil {
		return nil, err
	}
	printPass(stdout, "untraced", rep.Untraced)
	res := result{
		Correct:   rep.Untraced.Failed == 0,
		Attempted: rep.Untraced.Jobs,
		Failed:    rep.Untraced.Failed,
		Metrics:   map[string]metric{},
	}
	// The set-ups ran over the untraced pass, so its scale applies.
	setupS := median(rep.SetupS) * rep.Untraced.Scale
	fmt.Fprintf(stdout, "  set-up: %d, scaled CPU median %.4f s; CPU median %.4f s (%.4f–%.4f), wall median %.4f s\n", len(rep.SetupS),
		setupS, median(rep.SetupS), slices.Min(rep.SetupS), slices.Max(rep.SetupS), median(rep.SetupWallS))
	if !traced {
		u := rep.Untraced
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["job_ms_p50"] = metric{u.P50Ms, "ms"}
		res.Metrics["job_ms_tail"] = metric{u.TailMs, "ms"}
		res.Metrics["jobs_per_s"] = metric{u.JobsPerS, "1/s"}
		res.Metrics["peak_rss_mb"] = metric{u.PeakRSSMB, "MB"}
		rep.result = res
		return rep, nil
	}

	on.startPhase(jobsPhase)
	rep.Traced = timedPass(def, wl, on, pass, nil)
	printPass(stdout, "traced", rep.Traced)
	// An untimed third pass over the same job stream runs under a CPU
	// profile, which the bypass check reads. It is apart from the timed
	// passes because while a profiling timer is armed the kernel reads the
	// process CPU clock at tick resolution.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	profiled := timedPass(def, wl, off, profileSeconds, nil)
	pprof.StopCPUProfile()
	for _, ps := range []*passSummary{rep.Traced, profiled} {
		if ps.Failed > 0 {
			res.Correct = false
			res.Failed += ps.Failed
		}
		res.Attempted += ps.Jobs
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	rep.Bypass = checkBypass(def.name, samples)
	if !rep.Bypass.Held {
		res.Correct = false
	}
	if bd, ok := wl.(breakdowner); ok {
		on.startPhase(breakdownPhase)
		for i := 0; i < def.window; i++ {
			on.beginJob(i, layerBreakdown)
			err := bd.breakdown(on, i)
			on.endJob()
			if err != nil {
				rep.BreakdownErr = fmt.Sprintf("job %d: %v", i, err)
				res.Correct = false
				break
			}
		}
	}
	// One more set-up, traced, gives the set-up spans and the set-up
	// tracing overhead.
	on.startPhase(setupPhase)
	if _, rep.TracedSetupS, _, err = timeSetup(def, on, seed); err != nil {
		return nil, err
	}
	rep.Overhead = map[string]float64{
		"setup_s":     rep.TracedSetupS/median(rep.SetupS) - 1,
		"job_ms_p50":  rep.Traced.P50Ms/rep.Untraced.P50Ms - 1,
		"job_ms_tail": rep.Traced.TailMs/rep.Untraced.TailMs - 1,
		"jobs_per_s":  rep.Traced.JobsPerS/rep.Untraced.JobsPerS - 1,
		"peak_rss_mb": rep.Traced.PeakRSSMB/rep.Untraced.PeakRSSMB - 1,
	}
	fmt.Fprintf(stdout, "  tracing overhead: setup_s %+.1f%%, job_ms_p50 %+.1f%%, job_ms_tail %+.1f%%, jobs_per_s %+.1f%%, peak_rss_mb %+.1f%%\n",
		100*rep.Overhead["setup_s"], 100*rep.Overhead["job_ms_p50"], 100*rep.Overhead["job_ms_tail"],
		100*rep.Overhead["jobs_per_s"], 100*rep.Overhead["peak_rss_mb"])
	probe, err := desProbe()
	if err != nil {
		return nil, err
	}
	rep.Exact = jobsPhase.counts
	rep.SetupExact = setupPhase.counts
	rep.BreakdownExact = breakdownPhase.counts
	ph := &phases{setup: setupPhase, breakdown: breakdownPhase, jobs: jobsPhase,
		jobsN: float64(rep.Traced.Jobs), window: float64(def.window)}
	rep.Layers = layerTable(ph)
	rep.spans = on.spans
	res.Metrics = layerMetrics(rep, ph, probe)
	printLayers(stdout, rep)
	rep.result = res
	return rep, nil
}

// timeSetup sets the workload up from empty memo caches and a collected
// heap, and returns it with the set-up's CPU and wall-clock seconds.
func timeSetup(def *workloadDef, tr *tracer, seed uint64) (benchWorkload, float64, float64, error) {
	builtins.ResetFastCaches()
	runtime.GC()
	start, cpu0 := time.Now(), cpuNow()
	tr.begin("setup")
	wl, err := def.setup(tr, seed)
	tr.end()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	return wl, (cpuNow() - cpu0).Seconds(), time.Since(start).Seconds(), nil
}

// setupSampler times set-ups in fresh processes of this program.
type setupSampler struct {
	exe, name string
	seed      uint64
	last      time.Time // when the last batch ended
	rep       *report   // receives the times
	err       error
}

func newSetupSampler(name string, seed uint64, rep *report) (*setupSampler, error) {
	exe, err := os.Executable()
	return &setupSampler{exe: exe, name: name, seed: seed, last: time.Now(), rep: rep}, err
}

// once times one set-up in a fresh process.
func (s *setupSampler) once() error {
	cmd := osexec.Command(s.exe, "--setup-only", "--workload", s.name, "--seed", strconv.FormatUint(s.seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("set-up process: %w: %s", err, stderr.String())
	}
	var cpu, wall float64
	if _, err := fmt.Sscan(string(out), &cpu, &wall); err != nil {
		return fmt.Errorf("set-up process printed %q: %w", out, err)
	}
	s.rep.SetupS = append(s.rep.SetupS, cpu)
	s.rep.SetupWallS = append(s.rep.SetupWallS, wall)
	return nil
}

// batch runs a batch of set-ups when one is due and returns the
// wall-clock it took. After an error it runs no more.
func (s *setupSampler) batch() time.Duration {
	if s == nil || s.err != nil || time.Since(s.last) < setupEvery {
		return 0
	}
	start := time.Now()
	for {
		if s.err = s.once(); s.err != nil || time.Since(start) >= setupBatch {
			break
		}
	}
	s.last = time.Now()
	return s.last.Sub(start)
}

// topUp runs set-ups until there are minSetupReps.
func (s *setupSampler) topUp() error {
	for s.err == nil && len(s.rep.SetupS) < minSetupReps {
		s.err = s.once()
	}
	return s.err
}

// timedPass runs the job stream from job 0 until the pass has lasted
// seconds and the canonical window is complete, stopping for the batches
// of set-ups, if any, which its times leave out. Every pass starts from
// empty builtin memo caches and a fresh heap.
func timedPass(def *workloadDef, wl benchWorkload, tr *tracer, seconds float64, setups *setupSampler) *passSummary {
	builtins.ResetFastCaches()
	runtime.GC()
	rt0 := readRuntime()
	ps := &passSummary{}
	digest := fnv.New64a()
	var speedups []float64
	var gen, slo int
	seen := map[string]bool{}
	reused := 0
	limit := time.Duration(seconds * float64(time.Second))
	var rssPeaks []float64
	resetPeakRSS()
	windowStart := time.Now()
	n := blockJobs(wl.round())
	cpuBlocks, wallBlocks := newBlockSeries(n), newBlockSeries(n)
	var refs []float64 // the reference kernel's CPU times, ms
	start, cpuStart := time.Now(), cpuNow()
	// paused and cpuPaused are the wall-clock and CPU time spent in set-up
	// batches and the reference kernel, which the pass's clocks leave out.
	var paused, cpuPaused, lastRef time.Duration
	for i := 0; i < def.window || time.Since(start)-paused < limit; i++ {
		t0, c0 := time.Now(), cpuNow()
		tr.beginJob(i, layerHarness)
		out := wl.job(tr, i)
		tr.endJob()
		c1 := cpuNow()
		wallMs := float64(time.Since(t0)) / 1e6
		ps.jobMsSum += wallMs
		cpuClock := c1 - cpuStart - cpuPaused
		wallBlocks.add(wallMs, (time.Since(start) - paused).Seconds(), out.err == nil)
		cpuBlocks.add(float64(c1-c0)/1e6, cpuClock.Seconds(), out.err == nil)
		if cpuClock-lastRef >= refEvery {
			w0 := time.Now()
			refs = append(refs, float64(refK.run())/1e6)
			cpuPaused += cpuNow() - c1
			d := time.Since(w0)
			paused += d
			windowStart = windowStart.Add(d)
			lastRef = cpuClock
		}
		if time.Since(windowStart) >= rssWindow {
			rssPeaks = append(rssPeaks, peakRSSMB())
			resetPeakRSS()
			windowStart = time.Now()
		}
		// A set-up batch pauses the pass's clocks, including the CPU time
		// this process spends starting the set-up processes, and the RSS
		// window.
		cb := cpuNow()
		d := setups.batch()
		cpuPaused += cpuNow() - cb
		paused += d
		windowStart = windowStart.Add(d)
		ps.seqCostSum += out.seqCost
		ps.Jobs++
		if out.err != nil {
			ps.Failed++
			if len(ps.FirstErrors) < 5 {
				ps.FirstErrors = append(ps.FirstErrors, fmt.Sprintf("job %d: %v", i, out.err))
			}
		}
		if i >= def.window {
			continue
		}
		fmt.Fprintf(digest, "%d %s|", i, out.digest)
		if out.err != nil {
			fmt.Fprintf(digest, "error %v|", out.err)
		}
		if seen[out.key] {
			reused++
		}
		seen[out.key] = true
		if out.parVT > 0 {
			speedups = append(speedups, float64(out.seqVT)/float64(out.parVT))
		}
		gen += out.svcGen
		slo += out.svcSLO
	}
	ps.ElapsedS = (time.Since(start) - paused).Seconds()
	ps.CPUS = (cpuNow() - cpuStart - cpuPaused).Seconds()
	// A pass shorter than refEvery × minRefRuns still gets a scale.
	for len(refs) < minRefRuns {
		refs = append(refs, float64(refK.run())/1e6)
	}
	ps.StealFrac = 1 - ps.CPUS/ps.ElapsedS
	rt1 := readRuntime()
	if len(rssPeaks) == 0 || time.Since(windowStart) >= rssWindow/2 {
		rssPeaks = append(rssPeaks, peakRSSMB())
	}
	ps.PeakRSSMB = quantile(sortedCopy(rssPeaks), 0.75)

	ps.CPUP50Ms, ps.TailPct, ps.CPUTailMs, ps.TailN, ps.CPUJobsPerS = cpuBlocks.stats()
	ps.WallP50Ms, _, ps.WallTailMs, _, ps.WallJobsPerS = wallBlocks.stats()
	ps.BlockJobs, ps.Blocks = cpuBlocks.blockJobs, len(cpuBlocks.p50s)
	ps.RefMs, ps.RefRuns = median(refs), len(refs)
	ps.Scale = float64(refNominal) / 1e6 / ps.RefMs
	ps.P50Ms, ps.TailMs, ps.JobsPerS = ps.CPUP50Ms*ps.Scale, ps.CPUTailMs*ps.Scale, ps.CPUJobsPerS/ps.Scale
	ps.FailedFrac = float64(ps.Failed) / float64(ps.Jobs)
	if cpu := rt1.cpuTotal - rt0.cpuTotal; cpu > 0 {
		ps.GCCPUFrac = (rt1.cpuGC - rt0.cpuGC) / cpu
	}
	ps.AllocMB = float64(rt1.allocB-rt0.allocB) / float64(ps.Jobs) / (1 << 20)
	ps.Digest = fmt.Sprintf("%016x", digest.Sum64())
	ps.VTSpeedup = geomean(speedups)
	if gen > 0 {
		ps.VTSLOFrac = float64(slo) / float64(gen)
	}
	ps.InputReuse = float64(reused) / float64(def.window)
	return ps
}

// minBlockJobs is the fewest jobs a timing block holds, so that a block's
// tail percentile has jobs beyond it.
const minBlockJobs = 200

// minRefRuns is the fewest runs of the reference kernel a pass makes.
const minRefRuns = 5

// blockJobs is the size of a timing block: whole rounds of the job
// stream, at least minBlockJobs jobs.
func blockJobs(round int) int {
	return round * ((minBlockJobs + round - 1) / round)
}

// blockSeries cuts one clock's job times into blocks of n jobs — whole
// rounds of the job stream, so every block runs the same job mix — and
// keeps only each finished block's statistics, so that the benchmark's
// own memory does not grow with the number of jobs a pass runs. A burst
// of load from other tenants of a shared host slows a few blocks and
// leaves the medians over the blocks alone.
type blockSeries struct {
	n, blockJobs int
	times        []float64 // the open block's job times, ms
	ok           int       // the open block's validated jobs
	start, end   float64   // the clock at the open block's start and last job's end, s

	p50s, pcts, tails, beyonds, rates []float64
}

func newBlockSeries(n int) *blockSeries {
	return &blockSeries{n: n, times: make([]float64, 0, n)}
}

// add records a job's time in ms, the clock in seconds at its end, and
// whether it was validated.
func (b *blockSeries) add(ms, end float64, ok bool) {
	b.times = append(b.times, ms)
	b.end = end
	if ok {
		b.ok++
	}
	if len(b.times) == b.n {
		b.close()
	}
}

func (b *blockSeries) close() {
	b.blockJobs = len(b.times)
	b.p50s = append(b.p50s, median(b.times))
	q, v, nb := tail(b.times, tailMax)
	b.pcts, b.tails, b.beyonds = append(b.pcts, q), append(b.tails, v), append(b.beyonds, float64(nb))
	b.rates = append(b.rates, float64(b.ok)/(b.end-b.start))
	b.times, b.ok, b.start = b.times[:0], 0, b.end
}

// stats returns the medians over the blocks of each block's median job
// time, its tail percentile (with the percentile and the jobs beyond it)
// and its validated jobs per second. A partial last block is dropped,
// unless the pass is shorter than one block (as in the tests).
func (b *blockSeries) stats() (p50, pct, tailMs float64, beyond int, rate float64) {
	if len(b.p50s) == 0 && len(b.times) > 0 {
		b.close()
	}
	return median(b.p50s), median(b.pcts), median(b.tails), int(median(b.beyonds)), median(b.rates)
}

func printPass(w io.Writer, what string, ps *passSummary) {
	fmt.Fprintf(w, "  %s: %d jobs in %.3f s wall, %.3f s CPU (steal_frac %.3f), %d failed (failed_frac %.4f)\n",
		what, ps.Jobs, ps.ElapsedS, ps.CPUS, ps.StealFrac, ps.Failed, ps.FailedFrac)
	fmt.Fprintf(w, "  %s: reference kernel %.4f ms CPU (median of %d runs), scale %.4f\n", what, ps.RefMs, ps.RefRuns, ps.Scale)
	fmt.Fprintf(w, "  %s: scaled CPU-time medians over %d blocks of %d jobs: job_ms_p50 %.4f, job_ms_tail %.4f (p%g, %d jobs beyond per block), jobs_per_s %.3f; CPU time: %.4f, %.4f, %.3f; wall-clock: %.4f, %.4f, %.3f\n",
		what, ps.Blocks, ps.BlockJobs, ps.P50Ms, ps.TailMs, 100*ps.TailPct, ps.TailN, ps.JobsPerS,
		ps.CPUP50Ms, ps.CPUTailMs, ps.CPUJobsPerS, ps.WallP50Ms, ps.WallTailMs, ps.WallJobsPerS)
	fmt.Fprintf(w, "  %s: digest %s; vt_speedup_geomean %.6f; vt_slo_frac %.6f; input_reuse_frac %.4f; gc_cpu_frac %.4f; alloc_mb_per_job %.3f\n",
		what, ps.Digest, ps.VTSpeedup, ps.VTSLOFrac, ps.InputReuse, ps.GCCPUFrac, ps.AllocMB)
	for _, e := range ps.FirstErrors {
		fmt.Fprintf(w, "  %s: %s\n", what, e)
	}
}

type runtimeSample struct {
	cpuGC, cpuTotal float64
	allocB          uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// writeFiles writes the run's report and, for a traced run, the span file.
func writeFiles(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s/%s-seed%d-trace%d", dir, rep.Workload, rep.Seed, boolInt(rep.Trace))
	if err := writeJSON(base+".json", rep); err != nil {
		return err
	}
	if rep.Trace {
		sort.Slice(rep.spans, func(i, j int) bool { return rep.spans[i].Start < rep.spans[j].Start })
		return writeJSON(base+"-spans.json", rep.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
