package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// The tracer records in-memory spans around every call the benchmark makes
// into a layer of the program. A span has a name, a start and an end, the
// span that caused it and the job it belongs to; spans nest strictly, so a
// stack gives each span's parent and the time its children cover. Self time
// is a span's duration minus the time its children cover, and self
// allocation is the allocation-counter delta minus its children's.
//
// Builtin calls are far too frequent to keep one span each: they are
// aggregated as leaf calls (count and total time, subtracted from the
// enclosing span's self time) and never read the allocation counter, so
// their allocations are charged to the enclosing span.
//
// A disabled tracer (the untraced run) returns at the top of every method.

// span is one recorded layer call, written to the span file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at a job's or set-up's root
	Job    int    `json:"job"`    // -1 during set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the span file; later spans are still aggregated.
const maxSpans = 200_000

type frame struct {
	id      int
	name    string
	start   int64
	childNs int64
	alloc0  uint64
	childB  uint64
}

// layerStat aggregates one span name over a phase.
type layerStat struct {
	Calls  int64 `json:"calls"`
	SelfNs int64 `json:"self_ns"`
	InclNs int64 `json:"incl_ns"`
	SelfB  int64 `json:"self_alloc_bytes"`
}

// phase is the aggregate of one benchmark phase: set-up, the timed jobs or
// the traced run's untimed breakdown.
type phase struct {
	layers map[string]*layerStat
	// perJob[j][layer] is job j's self time in the layer (jobs phase only).
	perJob []map[string]int64
	// counts are the exact counters of the phase (the jobs phase counts
	// only the canonical window, so they repeat exactly per seed); totals
	// count every job, for ratios against times taken over every job.
	counts map[string]int64
	totals map[string]int64
}

func newPhase() *phase {
	return &phase{layers: map[string]*layerStat{}, counts: map[string]int64{}, totals: map[string]int64{}}
}

func (p *phase) layer(name string) *layerStat {
	l := p.layers[name]
	if l == nil {
		l = &layerStat{}
		p.layers[name] = l
	}
	return l
}

type tracer struct {
	on     bool
	t0     time.Time
	job    int // current job index, -1 outside jobs
	window int // jobs at or past the window do not count
	stack  []frame
	spans  []span
	nextID int
	cur    *phase
	sample []metrics.Sample
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now(), job: -1, cur: newPhase()}
	t.sample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// startPhase makes p the phase later spans and counts go to.
func (t *tracer) startPhase(p *phase) { t.cur = p }

// begin opens a span; end closes the innermost one.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	t.stack = append(t.stack, frame{id: t.nextID, name: name, start: t.now(), alloc0: t.allocBytes()})
	t.nextID++
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	stop := t.now()
	dur := stop - f.start
	allocB := t.allocBytes() - f.alloc0
	l := t.cur.layer(f.name)
	l.Calls++
	l.SelfNs += dur - f.childNs
	l.InclNs += dur
	l.SelfB += int64(allocB - f.childB)
	if t.job >= 0 {
		t.cur.perJob[t.job][f.name] += dur - f.childNs
	}
	parent := -1
	if n > 0 {
		t.stack[n-1].childNs += dur
		t.stack[n-1].childB += allocB
		parent = t.stack[n-1].id
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Job: t.job, Name: f.name, Start: f.start, End: stop})
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// leaf charges one aggregated leaf call of ns to the named layer.
func (t *tracer) leaf(name string, ns int64) {
	if !t.on {
		return
	}
	l := t.cur.layer(name)
	l.Calls++
	l.SelfNs += ns
	l.InclNs += ns
	if t.job >= 0 {
		t.cur.perJob[t.job][name] += ns
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNs += ns
	}
}

// count adds to a counter. The exact count stops at the canonical window
// of the jobs phase, so it is a pure function of the seed; the total keeps
// counting, for ratios over every timed job.
func (t *tracer) count(name string, n int64) {
	if !t.on {
		return
	}
	t.cur.totals[name] += n
	if t.job < t.window {
		t.cur.counts[name] += n
	}
}

// beginJob opens job j's root span, named root.
func (t *tracer) beginJob(j int, root string) {
	if !t.on {
		return
	}
	t.job = j
	for len(t.cur.perJob) <= j {
		t.cur.perJob = append(t.cur.perJob, map[string]int64{})
	}
	t.begin(root)
}

func (t *tracer) endJob() {
	if !t.on {
		return
	}
	t.end()
	t.job = -1
}

// Layer span names. harness is a job's root span: its self time is the job
// time no layer span covers.
const (
	layerHarness   = "harness"
	layerBreakdown = "breakdown"
	layerParser    = "parser"
	layerTypes     = "types"
	layerLower     = "lower"
	layerCommset   = "commset"
	layerEffects   = "effects"
	layerAnalyze   = "pipeline.analyze_loops"
	layerTransform = "transform"
	layerAnalysis  = "analysis"
	layerProfile   = "profile"
	layerWorld     = "builtins.world"
	layerCall      = "builtins.call"
	layerRun       = "exec.run"
	layerSeq       = "exec.seq"
	layerValidate  = "exec.validate"
	layerCalib     = "exec.auto.calib"
	layerSvc       = "exec.svc"
)

// analysisLayers maps each analyzer family to its span name in the
// breakdown.
var analysisLayers = []string{"analysis.unsound", "analysis.race", "analysis.lint", "analysis.commute"}

// moduleOf names the module a span belongs to (the part before the first
// dot), which the per-module allocation metrics group by.
func moduleOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// layerNames returns the phase's span names in sorted order.
func (p *phase) layerNames() []string {
	var out []string
	for n := range p.layers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
