package main

import (
	"fmt"
	"time"

	"repro/internal/vm/des"
)

// The DES probe times the discrete-event simulator alone on a fixed-size
// program: two threads ping-ponging a mutex and a three-stage queue
// pipeline. Every Acquire, Release, Push and Pop is one scheduler event
// and one handoff between the scheduler and a simulated thread.

const (
	probeRounds = 4000 // lock acquisitions per ping-pong thread
	probeTokens = 4000 // tokens through the pipeline
	probeReps   = 5
)

type desProbeResult struct {
	handoffNs  float64
	eventsPerS float64
}

// desProbe runs the probe probeReps times and reports the median.
func desProbe() (desProbeResult, error) {
	var ns []float64
	for r := 0; r < probeReps; r++ {
		d, n, err := desProbeOnce()
		if err != nil {
			return desProbeResult{}, fmt.Errorf("des probe: %w", err)
		}
		ns = append(ns, float64(d)/float64(n))
	}
	h := median(ns)
	return desProbeResult{handoffNs: h, eventsPerS: 1e9 / h}, nil
}

// desProbeOnce runs one probe and returns its host time and event count.
func desProbeOnce() (time.Duration, int, error) {
	s := des.New(des.DefaultCostModel())
	lock := s.NewLock("probe", des.Mutex)
	for t := 0; t < 2; t++ {
		s.Spawn(fmt.Sprintf("ping%d", t), 0, func(th *des.Thread) error {
			for i := 0; i < probeRounds; i++ {
				th.Acquire(lock)
				th.Charge(50)
				th.Release(lock)
				th.Charge(50)
			}
			return nil
		})
	}
	q1 := s.NewQueue("q1", 32)
	q2 := s.NewQueue("q2", 32)
	s.Spawn("stage0", 0, func(th *des.Thread) error {
		for i := 0; i < probeTokens; i++ {
			th.Charge(30)
			th.Push(q1, i)
		}
		return nil
	})
	s.Spawn("stage1", 0, func(th *des.Thread) error {
		for i := 0; i < probeTokens; i++ {
			v := th.Pop(q1)
			th.Charge(30)
			th.Push(q2, v)
		}
		return nil
	})
	var sum int
	s.Spawn("stage2", 0, func(th *des.Thread) error {
		for i := 0; i < probeTokens; i++ {
			sum += th.Pop(q2).(int)
			th.Charge(30)
		}
		return nil
	})
	start := time.Now()
	if _, err := s.Run(); err != nil {
		return 0, 0, err
	}
	d := time.Since(start)
	if want := probeTokens * (probeTokens - 1) / 2; sum != want {
		return 0, 0, fmt.Errorf("pipeline delivered sum %d, want %d", sum, want)
	}
	events := 2*2*probeRounds + 4*probeTokens
	return d, events, nil
}
