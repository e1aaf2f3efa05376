package bench

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// TestBoundedCalibrationPick: the auto-scheduler runs each calibration
// slice under a watchdog budget of the best slice so far; its pick must
// equal the one running every candidate's slice to completion gives.
func TestBoundedCalibrationPick(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates every workload cell twice")
	}
	for _, wl := range workloads.All() {
		for _, threads := range goldenThreads {
			cp, err := compileUncached(wl, "comm", threads)
			if err != nil {
				t.Fatalf("compile %s/t%d: %v", wl.Name, threads, err)
			}
			mode := wl.Syncs()[0]
			for _, kind := range campaignKinds {
				sched := cp.Schedule(kind)
				if sched == nil {
					continue
				}
				var want transform.Tuning
				wantVT := int64(-1)
				for _, cand := range profile.TuneCandidates(kind, threads) {
					r, err := exec.Run(exec.Config{
						Prog: cp.C.Low.Prog, Builtins: freshWorld(wl).Fns(), Model: cp.C.Model,
						Cost: des.DefaultCostModel(), Tune: cand, MaxIters: 48,
					}, cp.LA, sched, mode, threads)
					if err == nil && (wantVT < 0 || r.VirtualTime < wantVT) {
						want, wantVT = cand, r.VirtualTime
					}
				}
				m, err := cp.runUncached(kind, mode, threads, true)
				if err != nil {
					t.Fatalf("auto %s %v/%v/t%d: %v", wl.Name, kind, mode, threads, err)
				}
				if m.Tune != want {
					t.Errorf("%s %v/%v/t%d: bounded calibration picked %q, unbounded %q", wl.Name, kind, mode, threads, m.Tune, want)
				}
			}
		}
	}
}
