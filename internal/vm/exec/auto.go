package exec

import (
	"sync/atomic"

	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/transform"
	"repro/internal/vm/interp"
)

// AutoOptions configures the profile-guided auto-scheduler. Before the
// measured run, Run executes one short calibration slice (the loop
// truncated to SliceIters iterations) per candidate tuning, each on a
// fresh substrate, and adopts the tuning of the fastest slice. The
// calibration is itself simulated in virtual time, so the pick — like
// everything else in the evaluation — is deterministic.
type AutoOptions struct {
	// Fresh returns a fresh builtin table for each calibration slice so
	// slices never perturb the substrate state of the measured run.
	// Required: without isolation the calibration would double-apply
	// side effects.
	Fresh func() map[string]interp.BuiltinFn

	// SliceIters caps each calibration slice (default 48 iterations).
	SliceIters int64

	// Candidates overrides the calibrated tuning set; nil uses
	// profile.TuneCandidates for the schedule kind.
	Candidates []transform.Tuning

	// Parallel, when set, runs the calibration slices on a host worker
	// pool: it must call fn(i) exactly once for every i in [0, n) and
	// return after all calls finish. Each slice runs on its own fresh
	// substrate and the winner is still selected in candidate order, so
	// the pick is identical however the slices are scheduled (the bench
	// harness wires its -hostpar pool here).
	Parallel func(n int, fn func(i int) error) error
}

func (a *AutoOptions) sliceIters() int64 {
	if a.SliceIters > 0 {
		return a.SliceIters
	}
	return 48
}

// autoTune runs the calibration slices and returns the winning tuning.
// The zero tuning is always among the candidates and wins ties, so a
// workload the fixed policies already serve best keeps them. Candidates
// whose slice fails (e.g. a schedule the workload cannot run) are
// skipped.
//
// Each slice runs with a watchdog budget of the best slice time so far
// (or the caller's budget, if smaller), so a losing slice stops once it
// cannot win. That cannot change the pick: a slice that finishes within
// the budget never requests an event past it, so it runs unchanged, and
// any other slice could not have won, since a candidate wins only with a
// strictly smaller time. A cut slice must not change what later runs
// see, so the budget needs fresh substrates and stays off under the
// sanitizer, which records every slice, and with fault hooks, whose state
// every slice advances.
func autoTune(cfg Config, la *pipeline.LoopAnalysis, sched *transform.Schedule, mode SyncMode, threads int) transform.Tuning {
	a := cfg.Auto
	cands := a.Candidates
	if cands == nil {
		cands = profile.TuneCandidates(sched.Kind, threads)
	}
	bounded := a.Fresh != nil && cfg.Sanitize == nil && cfg.CrashCheck == nil &&
		cfg.Straggle == nil && cfg.ExtraAborts == nil && cfg.PushDelay == nil
	var bestSoFar atomic.Int64 // 0 until a slice finishes
	times := make([]int64, len(cands))
	slice := func(i int) error {
		c := cfg
		c.Auto = nil
		c.Tune = cands[i]
		c.MaxIters = a.sliceIters()
		if a.Fresh != nil {
			c.Builtins = a.Fresh()
		}
		if b := bestSoFar.Load(); bounded && b > 0 && (c.Watchdog.MaxVTime <= 0 || b < c.Watchdog.MaxVTime) {
			c.Watchdog.MaxVTime = b
		}
		times[i] = -1
		r, err := Run(c, la, sched, mode, threads)
		if err != nil {
			return nil // a failing slice just removes its candidate
		}
		times[i] = r.VirtualTime
		for {
			b := bestSoFar.Load()
			if (b > 0 && b <= r.VirtualTime) || bestSoFar.CompareAndSwap(b, r.VirtualTime) {
				return nil
			}
		}
	}
	if a.Parallel != nil {
		_ = a.Parallel(len(cands), slice)
	} else {
		for i := range cands {
			_ = slice(i)
		}
	}
	best := transform.Tuning{}
	bestTime := int64(-1)
	for i, cand := range cands {
		if times[i] < 0 {
			continue
		}
		if bestTime < 0 || times[i] < bestTime {
			bestTime = times[i]
			best = cand
		}
	}
	return best
}
