package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/builtins"
	"repro/internal/faults"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// resilience: one job is either an open-system service run or a batch
// DOALL/PS-DSWP run under a seeded fault plan. A service job serves
// url-service or md5sum-service under a poisson, bursty or diurnal trace,
// below or above the capacity measured in set-up; md5sum-service request
// sizes come from HeavySetup with a per-job seed, so its inputs (and the
// sequential reference it is validated against) change from job to job.
// A batch job runs md5sum, kmeans, url or potrace with no fault, a
// transient or permanent crash, or a straggler with stealing on.

var (
	batchNames    = []string{"md5sum", "kmeans", "url", "potrace"}
	resilKinds    = []transform.Kind{transform.DOALL, transform.PSDSWP}
	traceNames    = []string{"poisson", "bursty", "diurnal"}
	resilThreads  = 8
	belowCapacity = 0.6
	aboveCapacity = 1.5
)

// service is one open service, compiled and calibrated in set-up.
type service struct {
	svc  *workloads.Service
	prog *simProgram
	n    int
	// refWorld is the reference trace's sequential run (url-service's inputs
	// never change; md5sum-service jobs make their own).
	refWorld *builtins.World
	reqCost  int64
	capacity map[transform.Kind]float64
}

// resilJob is one job kind. A service job kind is a service, schedule,
// trace, load and crash choice; a batch job kind a program, schedule and
// fault-plan class. The crash tick, straggler factor and job seed are
// drawn per job.
type resilJob struct {
	svc   *service // nil for a batch job
	prog  *simProgram
	kind  transform.Kind
	trace string
	above bool
	crash bool
	plan  int // batch: 0 none, 1 transient crash, 2 permanent crash, 3 straggler
}

type resilienceBench struct {
	seed   uint64
	jobs   []resilJob
	stream *stream
}

func setupResilience(tr *tracer, seed uint64) (benchWorkload, error) {
	b := &resilienceBench{seed: seed}
	byName := map[string]*simProgram{}
	for _, name := range batchNames {
		wl := workloads.ByName(name)
		p, err := compileSim(tr, wl, "comm", wl.Setup, true)
		if err != nil {
			return nil, err
		}
		byName[name] = p
		for _, kind := range resilKinds {
			if p.schedule(kind) == nil {
				continue
			}
			plans := []int{0, 1, 2}
			if kind == transform.DOALL {
				plans = append(plans, 3)
			}
			for _, plan := range plans {
				b.jobs = append(b.jobs, resilJob{prog: p, kind: kind, plan: plan})
			}
		}
	}
	for _, svc := range workloads.Services() {
		s := &service{svc: svc, prog: byName[svc.Workload.Name], n: svc.SmokeRequests, capacity: map[transform.Kind]float64{}}
		if s.prog == nil || s.prog.variant != svc.Variant {
			return nil, fmt.Errorf("service %s: no compiled %s[%s]", svc.Name, svc.Workload.Name, svc.Variant)
		}
		setup := s.setupFor(seed)
		var cost int64
		var err error
		if s.refWorld, cost, err = s.prog.sequential(tr, setup); err != nil {
			return nil, err
		}
		s.reqCost = max(cost/int64(s.n), 1)
		// Capacity probes: each schedule's closed-loop speedup over the
		// service-sized inputs, the denominator every offered load is
		// paced against.
		for _, kind := range resilKinds {
			sched := s.prog.schedule(kind)
			if sched == nil {
				return nil, fmt.Errorf("service %s: no %v schedule", svc.Name, kind)
			}
			w := buildWorld(tr, setup)
			var res *exec.Result
			tr.do(layerRun, func() { res, err = exec.Run(s.prog.resilientConfig(tr, w), s.prog.la, sched, s.mode(), resilThreads) })
			if err != nil {
				return nil, fmt.Errorf("capacity %s %v: %w", svc.Name, kind, err)
			}
			s.capacity[kind] = max(float64(cost)/float64(res.VirtualTime), 1)
		}
		for _, kind := range resilKinds {
			for _, trace := range traceNames {
				b.jobs = append(b.jobs,
					resilJob{svc: s, kind: kind, trace: trace},
					resilJob{svc: s, kind: kind, trace: trace, above: true})
				if kind == transform.DOALL {
					b.jobs = append(b.jobs, resilJob{svc: s, kind: kind, trace: trace, crash: true})
				}
			}
		}
	}
	b.stream = newStream(seed, "resilience", len(b.jobs))
	return b, nil
}

// setupFor returns the inputs of a trace: heavy-tailed request sizes from
// the seed for md5sum-service, the fixed packet trace for url-service.
func (s *service) setupFor(seed uint64) func(*builtins.World) {
	if s.svc.HeavySetup != nil {
		return func(w *builtins.World) { s.svc.HeavySetup(w, s.n, seed) }
	}
	return func(w *builtins.World) { s.svc.Setup(w, s.n) }
}

func (s *service) mode() exec.SyncMode { return s.svc.Workload.Syncs()[0] }

// resilientConfig is the executor configuration the campaigns use for
// fault and service runs: recovery on, a livelock watchdog, and the
// world's externally visible builtins marked effectful.
func (p *simProgram) resilientConfig(tr *tracer, w *builtins.World) exec.Config {
	cfg := p.config(tr, w)
	cfg.Recovery = exec.DefaultRecovery()
	cfg.Watchdog = des.Watchdog{MaxEvents: 5_000_000}
	cfg.Effectful = map[string]bool{}
	for name, d := range w.EffectTable() {
		if len(d.Writes) > 0 {
			cfg.Effectful[name] = true
		}
	}
	return cfg
}

func (b *resilienceBench) job(tr *tracer, i int) jobOut {
	j := b.jobs[b.stream.pick(i)]
	r := newRNG(b.seed, "resilience", i)
	if j.svc != nil {
		return b.serviceJob(tr, j, r)
	}
	return b.batchJob(tr, j, r)
}

func (b *resilienceBench) serviceJob(tr *tracer, j resilJob, r *rng) jobOut {
	s, kind, trace, above, crash := j.svc, j.kind, j.trace, j.above, j.crash
	crashAt := 2 + r.intn(5)
	jobSeed := r.next()
	util := belowCapacity
	if above {
		util = aboveCapacity
	}
	out := jobOut{
		key:   s.svc.Name,
		label: fmt.Sprintf("%s %v %s util=%g crash=%v", s.svc.Name, kind, trace, util, crash),
	}

	setup := s.setupFor(b.seed)
	seqWorld, reqCost := s.refWorld, s.reqCost
	if s.svc.HeavySetup != nil {
		setup = s.setupFor(jobSeed)
		out.key = fmt.Sprintf("%s/%d", s.svc.Name, jobSeed)
		var cost int64
		var err error
		if seqWorld, cost, err = s.prog.sequential(tr, setup); err != nil {
			out.err = err
			return out
		}
		reqCost = max(cost/int64(s.n), 1)
	}

	gap := float64(reqCost) / (s.capacity[kind] * util)
	svcCfg := func() exec.ServiceConfig {
		c := exec.ServiceConfig{
			Requests:   s.n,
			IngressCap: 32,
			Deadline:   int64(s.svc.DeadlineFactor * float64(reqCost)),
			SLO:        int64(s.svc.SLOFactor * float64(reqCost)),
			Scaler:     &exec.ScalerConfig{Window: 8 * reqCost},
			EstReqCost: reqCost,
		}
		switch trace {
		case "bursty":
			c.Arrivals = des.NewBursty(jobSeed, gap, gap*20)
		case "diurnal":
			c.Arrivals = des.NewDiurnal(jobSeed, gap, s.n)
		default:
			c.Arrivals = des.NewPoisson(jobSeed, gap)
		}
		if above {
			c.Scaler = &exec.ScalerConfig{
				Window: 8 * reqCost, MinWorkers: 2,
				EscalateAfter: 1, BadAttainment: 0.6, BadPressure: 0.5, AllowFallback: true,
			}
		}
		if crash {
			c.Scaler.MinWorkers = 2
		}
		return c
	}
	sched := s.prog.schedule(kind)
	var plan *faults.Plan
	if crash {
		plan = &faults.Plan{Name: "svc-crash", Seed: jobSeed, Recoverable: true,
			Specs: []faults.Spec{{Kind: faults.Crash, Thread: "svc.1", After: crashAt}}}
		always, scalable := exec.ServiceRoster(sched, resilThreads, 2)
		if err := plan.ValidateService(faults.ServiceRoster{Always: always, Scalable: scalable}); err != nil {
			out.err = err
			return out
		}
	}

	var w *builtins.World
	var inj *faults.Injector
	fresh := func() (exec.Config, exec.ServiceConfig) {
		w = buildWorld(tr, setup)
		cfg := s.prog.resilientConfig(tr, w)
		if plan != nil {
			inj = faults.NewInjector(*plan)
			cfg.Builtins = inj.Wrap(cfg.Builtins)
			cfg.CrashCheck = inj.CrashNow
		}
		return cfg, svcCfg()
	}
	var res *exec.ServiceResult
	var err error
	tr.do(layerSvc, func() {
		if above {
			// Above capacity the ladder may shed, scale down and finally
			// fall back to the sequential service.
			res, err = exec.RunServiceResilient(exec.ServiceResilientOptions{
				LA: s.prog.la, Sched: sched, Mode: s.mode(), Threads: resilThreads, Fresh: fresh,
				Accept: func(res *exec.ServiceResult) error { return s.svc.Validate(seqWorld, w, res.Completed) },
			})
			return
		}
		cfg, sc := fresh()
		res, err = exec.RunService(cfg, sc, s.prog.la, sched, s.mode(), resilThreads)
	})
	if err != nil {
		out.err = fmt.Errorf("%s: %w", out.label, err)
		return out
	}
	tr.do(layerValidate, func() { err = validateService(s, seqWorld, w, res) })
	if err != nil {
		out.err = fmt.Errorf("%s: %w", out.label, err)
		return out
	}

	out.svcGen, out.svcSLO = res.Generated, res.WithinSLO
	tr.count("exec.svc.generated", int64(res.Generated))
	tr.count("exec.svc.shed", int64(res.ShedBucket+res.ShedQueue))
	tr.count("exec.vtime", res.Makespan)
	var replayed int64
	for _, rr := range res.RestartHistory {
		replayed += rr.Replayed
	}
	wasted := replayed + int64(res.IterRetries+res.CallRetries+res.Failed)
	if res.Aborted != nil {
		wasted += int64(res.Aborted.Completed)
	}
	b.countResilience(tr, res.Restarts, res.Steals, res.IterRetries, res.Attempts, inj)
	tr.count("exec.useful", int64(res.Completed))
	tr.count("exec.executed", int64(res.Completed)+wasted)

	js, _ := json.Marshal(res)
	h := fnv.New64a()
	h.Write(js)
	out.digest = fmt.Sprintf("%s result=%016x out=%016x", out.label, h.Sum64(), outputHash(w, false))
	return out
}

// validateService checks a service run: the trace was generated in full,
// every request is accounted for, and the externalized effects are a
// subset-consistent prefix of the sequential reference.
func validateService(s *service, seqWorld, w *builtins.World, res *exec.ServiceResult) error {
	if res.Generated != s.n {
		return fmt.Errorf("trace truncated: %d requests generated, want %d", res.Generated, s.n)
	}
	if sum := res.Completed + res.ShedBucket + res.ShedQueue + res.Abandoned + res.Rejected + res.Failed; sum != res.Generated {
		return fmt.Errorf("accounting identity broken: generated %d, accounted %d", res.Generated, sum)
	}
	return s.svc.Validate(seqWorld, w, res.Completed)
}

func (b *resilienceBench) batchJob(tr *tracer, j resilJob, r *rng) jobOut {
	p, kind, planKind := j.prog, j.kind, j.plan
	crashAt := 2 + r.intn(5)
	factor := []float64{4, 8}[r.intn(2)]
	jobSeed := r.next()
	sched := p.schedule(kind)
	roster := exec.CrashRoster(sched, resilThreads)
	victim := roster[0]
	if kind == transform.DOALL {
		victim = roster[1]
	}
	var plan *faults.Plan
	tune := transform.Tuning{}
	switch planKind {
	case 1, 2:
		plan = &faults.Plan{Name: "crash", Seed: jobSeed, Recoverable: true,
			Specs: []faults.Spec{{Kind: faults.Crash, Thread: victim, After: crashAt, Permanent: planKind == 2}}}
	case 3:
		plan = &faults.Plan{Name: "straggler", Seed: jobSeed, Recoverable: true,
			Specs: []faults.Spec{{Kind: faults.Straggler, Thread: victim, After: 1, Count: 1 << 20, Factor: factor}}}
		tune.Steal = true
	}
	out := jobOut{
		key:     p.name,
		label:   fmt.Sprintf("%s %v plan=%d at=%d factor=%g", p.name, kind, planKind, crashAt, factor),
		seqCost: p.seqCost,
	}
	if plan != nil {
		if err := plan.Validate(roster); err != nil {
			out.err = err
			return out
		}
	}

	var w *builtins.World
	var inj *faults.Injector
	var ticks int64
	tick := func() { ticks++ }
	fresh := func() exec.Config {
		w = p.world(tr)
		cfg := p.resilientConfig(tr, w)
		cfg.Tune = tune
		if plan != nil {
			inj = faults.NewInjector(*plan)
			cfg.Builtins = inj.Wrap(cfg.Builtins)
			if plan.HasCrash() {
				cfg.CrashCheck = func(role string) (bool, bool) { tick(); return inj.CrashNow(role) }
			}
			if plan.HasStraggler() {
				cfg.Straggle = func(role string) float64 { tick(); return inj.SlowNow(role) }
			}
		}
		return cfg
	}
	var res *exec.Result
	var err error
	tr.do(layerRun, func() {
		res, err = exec.RunResilient(exec.ResilientOptions{
			LA: p.la, Sched: sched, Mode: p.wl.Syncs()[0], Threads: resilThreads, Fresh: fresh,
			// DOALL and PS-DSWP externalize out of order; the multiset
			// must match the sequential run's exactly once.
			Accept: func(bool) error { return p.wl.Validate(p.seqWorld, w, false) },
		})
	})
	if err != nil {
		out.err = fmt.Errorf("%s: %w", out.label, err)
		return out
	}
	tr.do(layerValidate, func() { err = p.wl.Validate(p.seqWorld, w, false) })
	if err != nil {
		out.err = fmt.Errorf("%s: validate: %w", out.label, err)
		return out
	}
	out.seqVT, out.parVT = p.seqCost, res.VirtualTime
	tr.count("exec.vtime", res.VirtualTime)
	b.countResilience(tr, res.Restarts, res.Steals, res.IterRetries, res.Attempts, inj)
	if plan != nil {
		// Each crash or straggle tick is one pass or token executed,
		// replays included; the replayed ones and the retries are waste.
		var replayed int64
		for _, rr := range res.RestartHistory {
			replayed += rr.Replayed
		}
		retries := int64(res.IterRetries + res.CallRetries)
		useful := ticks - replayed
		if res.FellBack {
			useful = 0 // the parallel attempts' work was thrown away
		}
		tr.count("exec.useful", useful)
		tr.count("exec.executed", ticks+retries)
	}
	out.digest = fmt.Sprintf("%s vt=%d restarts=%d steals=%d fellback=%v out=%016x",
		out.label, res.VirtualTime, res.Restarts, res.Steals, res.FellBack, outputHash(w, false))
	return out
}

func (b *resilienceBench) countResilience(tr *tracer, restarts, steals, iterRetries, attempts int, inj *faults.Injector) {
	tr.count("exec.restarts", int64(restarts))
	tr.count("exec.steals", int64(steals))
	tr.count("exec.iter_retries", int64(iterRetries))
	tr.count("exec.attempts", int64(attempts))
	if inj != nil {
		tr.count("faults.injected", int64(inj.Injected()))
	}
}

func (b *resilienceBench) round() int { return len(b.jobs) }
