package des

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// flatCost returns a cost model with zeroed overheads so tests can reason
// about exact virtual times.
func flatCost() CostModel {
	return CostModel{}
}

func TestSingleThreadCharges(t *testing.T) {
	s := New(flatCost())
	s.Spawn("w", 0, func(th *Thread) error {
		th.Charge(100)
		return nil
	})
	makespan, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 100 {
		t.Errorf("makespan = %d, want 100", makespan)
	}
}

func TestParallelThreadsOverlap(t *testing.T) {
	s := New(flatCost())
	for i := 0; i < 4; i++ {
		s.Spawn("w", 0, func(th *Thread) error {
			th.Charge(100)
			return nil
		})
	}
	makespan, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Four independent threads run concurrently in virtual time.
	if makespan != 100 {
		t.Errorf("makespan = %d, want 100 (perfect overlap)", makespan)
	}
}

func TestLockSerializesCriticalSections(t *testing.T) {
	s := New(flatCost())
	l := s.NewLock("l", Spin)
	for i := 0; i < 4; i++ {
		s.Spawn("w", 0, func(th *Thread) error {
			th.Acquire(l)
			th.Charge(100)
			th.Release(l)
			return nil
		})
	}
	makespan, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Critical sections fully serialize: 4 * 100.
	if makespan != 400 {
		t.Errorf("makespan = %d, want 400", makespan)
	}
}

func TestLockFIFOByRequestTime(t *testing.T) {
	s := New(flatCost())
	l := s.NewLock("l", Spin)
	var order []int
	mk := func(id int, arrive int64) {
		s.Spawn("w", 0, func(th *Thread) error {
			th.Charge(arrive)
			th.Acquire(l)
			order = append(order, id)
			th.Charge(50)
			th.Release(l)
			return nil
		})
	}
	mk(0, 0)
	mk(1, 30)
	mk(2, 10)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 1} // grant order follows virtual request time
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMutexWakePenalty(t *testing.T) {
	cost := CostModel{MutexWake: 500}
	s := New(cost)
	l := s.NewLock("l", Mutex)
	for i := 0; i < 2; i++ {
		s.Spawn("w", 0, func(th *Thread) error {
			th.Acquire(l)
			th.Charge(100)
			th.Release(l)
			return nil
		})
	}
	makespan, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Second thread: woken at 100 + 500 penalty, then 100 work.
	if makespan != 700 {
		t.Errorf("makespan = %d, want 700", makespan)
	}
}

func TestSpinContentionPenaltyScalesWithWaiters(t *testing.T) {
	run := func(n int) int64 {
		s := New(CostModel{SpinContention: 100})
		l := s.NewLock("l", Spin)
		for i := 0; i < n; i++ {
			s.Spawn("w", 0, func(th *Thread) error {
				th.Acquire(l)
				th.Charge(10)
				th.Release(l)
				return nil
			})
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	low := run(2)
	high := run(6)
	if high-low < 4*10 {
		t.Errorf("contention penalty did not grow: 2 threads %d, 6 threads %d", low, high)
	}
}

func TestQueuePipelining(t *testing.T) {
	s := New(CostModel{QueueLatency: 10})
	q := s.NewQueue("q", 4)
	const n = 5
	s.Spawn("producer", 0, func(th *Thread) error {
		for i := 0; i < n; i++ {
			th.Charge(100) // produce
			th.Push(q, i)
		}
		return nil
	})
	var got []int
	s.Spawn("consumer", 0, func(th *Thread) error {
		for i := 0; i < n; i++ {
			v := th.Pop(q).(int)
			got = append(got, v)
			th.Charge(100) // consume
		}
		return nil
	})
	makespan, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
	// Pipelined: roughly n*100 + one stage latency, far below 2*n*100.
	if makespan >= 2*n*100 {
		t.Errorf("no pipelining: makespan = %d", makespan)
	}
	if makespan < n*100 {
		t.Errorf("impossible makespan = %d", makespan)
	}
}

func TestQueueBackpressure(t *testing.T) {
	s := New(flatCost())
	q := s.NewQueue("q", 1)
	s.Spawn("producer", 0, func(th *Thread) error {
		for i := 0; i < 3; i++ {
			th.Push(q, i)
		}
		return nil
	})
	s.Spawn("consumer", 0, func(th *Thread) error {
		for i := 0; i < 3; i++ {
			th.Charge(100)
			if v := th.Pop(q).(int); v != i {
				t.Errorf("pop %d: got %v", i, v)
			}
		}
		return nil
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New(flatCost())
	q := s.NewQueue("q", 1)
	s.Spawn("w", 0, func(th *Thread) error {
		th.Pop(q) // nobody will ever push
		return nil
	})
	_, err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSleepInterleaving(t *testing.T) {
	s := New(flatCost())
	var events []string
	s.Spawn("a", 0, func(th *Thread) error {
		th.Sleep(50)
		events = append(events, "a@50")
		return nil
	})
	s.Spawn("b", 0, func(th *Thread) error {
		th.Sleep(20)
		events = append(events, "b@20")
		return nil
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != "b@20" || events[1] != "a@50" {
		t.Errorf("events = %v", events)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		s := New(DefaultCostModel())
		l := s.NewLock("l", Spin)
		q := s.NewQueue("q", 8)
		s.Spawn("p", 0, func(th *Thread) error {
			for i := 0; i < 20; i++ {
				th.Charge(int64(7 * (i + 1)))
				th.Acquire(l)
				th.Charge(5)
				th.Release(l)
				th.Push(q, i)
			}
			return nil
		})
		for w := 0; w < 3; w++ {
			s.Spawn("c", 0, func(th *Thread) error {
				for i := w; i < 20; i += 3 {
					_ = th.Pop(q)
					th.Acquire(l)
					th.Charge(11)
					th.Release(l)
				}
				return nil
			})
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := run()
	b := run()
	if a != b {
		t.Errorf("nondeterministic makespan: %d vs %d", a, b)
	}
}

// TestQueueFIFOQuick: random push/pop schedules with arbitrary costs must
// preserve FIFO order and deliver every token exactly once.
func TestQueueFIFOQuick(t *testing.T) {
	run := func(costs []uint16, capacity uint8) bool {
		if len(costs) == 0 {
			return true
		}
		if len(costs) > 64 {
			costs = costs[:64]
		}
		capn := int(capacity%8) + 1
		s := New(DefaultCostModel())
		q := s.NewQueue("q", capn)
		n := len(costs)
		s.Spawn("producer", 0, func(th *Thread) error {
			for i := 0; i < n; i++ {
				th.Charge(int64(costs[i]))
				th.Push(q, i)
			}
			return nil
		})
		got := make([]int, 0, n)
		s.Spawn("consumer", 0, func(th *Thread) error {
			for i := 0; i < n; i++ {
				th.Charge(int64(costs[n-1-i]) / 2)
				got = append(got, th.Pop(q).(int))
			}
			return nil
		})
		if _, err := s.Run(); err != nil {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLockMutualExclusionQuick: under random hold times, critical sections
// never overlap in virtual time.
func TestLockMutualExclusionQuick(t *testing.T) {
	run := func(holds []uint8, spin bool) bool {
		if len(holds) == 0 {
			return true
		}
		if len(holds) > 16 {
			holds = holds[:16]
		}
		kind := Mutex
		if spin {
			kind = Spin
		}
		s := New(DefaultCostModel())
		l := s.NewLock("l", kind)
		type span struct{ start, end int64 }
		var spans []span
		for i := range holds {
			h := int64(holds[i]) + 1
			s.Spawn("w", 0, func(th *Thread) error {
				th.Acquire(l)
				start := th.VTime
				th.Charge(h)
				end := th.VTime
				spans = append(spans, span{start, end})
				th.Release(l)
				return nil
			})
		}
		if _, err := s.Run(); err != nil {
			return false
		}
		for i := range spans {
			for j := range spans {
				if i == j {
					continue
				}
				a, b := spans[i], spans[j]
				if a.start < b.end && b.start < a.end {
					return false // overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeadlockDiagnosticNamesThreadsAndQueues(t *testing.T) {
	s := New(flatCost())
	q := s.NewQueue("stage.q", 1)
	l := s.NewLock("set:FSET", Mutex)
	s.Spawn("consumer", 0, func(th *Thread) error {
		th.Acquire(l)
		th.Pop(q) // nobody will ever push: deadlock while holding the lock
		return nil
	})
	s.Spawn("rival", 0, func(th *Thread) error {
		th.Sleep(10)
		th.Acquire(l) // blocks forever behind consumer
		return nil
	})
	_, err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *StallError", err)
	}
	if se.Kind != "deadlock" || len(se.Threads) != 2 {
		t.Fatalf("kind=%q threads=%d: %v", se.Kind, len(se.Threads), err)
	}
	msg := err.Error()
	for _, want := range []string{
		"thread consumer", "blocked popping queue stage.q",
		"holds [set:FSET]",
		"thread rival", "blocked acquiring lock set:FSET (held by consumer",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}

func TestDeadlockDiagnosticFullQueue(t *testing.T) {
	s := New(flatCost())
	q := s.NewQueue("out", 1)
	s.Spawn("producer", 0, func(th *Thread) error {
		th.Push(q, 1)
		th.Push(q, 2) // queue full, no consumer: blocks forever
		return nil
	})
	_, err := s.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if !strings.Contains(err.Error(), "blocked pushing queue out (full 1/1") {
		t.Errorf("diagnostic = %v", err)
	}
}

func TestWatchdogVTimeBudget(t *testing.T) {
	s := New(flatCost())
	s.Watchdog = Watchdog{MaxVTime: 1000}
	s.Spawn("spinner", 0, func(th *Thread) error {
		for {
			th.Sleep(100) // burns virtual time forever
		}
	})
	_, err := s.Run()
	var se *StallError
	if !errors.As(err, &se) || se.Kind != "watchdog" {
		t.Fatalf("err = %v, want watchdog StallError", err)
	}
	if !strings.Contains(err.Error(), "virtual time") || !strings.Contains(err.Error(), "spinner") {
		t.Errorf("diagnostic = %v", err)
	}
}

func TestWatchdogEventBudget(t *testing.T) {
	s := New(flatCost())
	s.Watchdog = Watchdog{MaxEvents: 500}
	s.Spawn("livelock", 0, func(th *Thread) error {
		for {
			th.Sleep(0) // infinite events at zero virtual cost
		}
	})
	_, err := s.Run()
	var se *StallError
	if !errors.As(err, &se) || se.Kind != "watchdog" {
		t.Fatalf("err = %v, want watchdog StallError", err)
	}
	if !strings.Contains(err.Error(), "livelock") {
		t.Errorf("diagnostic = %v", err)
	}
}

func TestWatchdogDoesNotFireOnHealthyRun(t *testing.T) {
	s := New(DefaultCostModel())
	s.Watchdog = Watchdog{MaxVTime: 1 << 40, MaxEvents: 1 << 40}
	q := s.NewQueue("q", 4)
	s.Spawn("p", 0, func(th *Thread) error {
		for i := 0; i < 50; i++ {
			th.Push(q, i)
		}
		return nil
	})
	s.Spawn("c", 0, func(th *Thread) error {
		for i := 0; i < 50; i++ {
			th.Pop(q)
		}
		return nil
	})
	if _, err := s.Run(); err != nil {
		t.Fatalf("healthy run tripped watchdog: %v", err)
	}
}

func TestPushNAmortizedCost(t *testing.T) {
	run := func(batched bool) int64 {
		s := New(CostModel{QueuePush: 40, QueuePushPer: 8})
		q := s.NewQueue("q", 8)
		s.Spawn("p", 0, func(th *Thread) error {
			if batched {
				th.PushN(q, []any{0, 1, 2, 3})
			} else {
				for i := 0; i < 4; i++ {
					th.Push(q, i)
				}
			}
			return nil
		})
		s.Spawn("c", 0, func(th *Thread) error {
			for i := 0; i < 4; i++ {
				if v := th.Pop(q).(int); v != i {
					t.Errorf("pop %d: got %v", i, v)
				}
			}
			return nil
		})
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Per-token: 4*40 = 160 producer cost. Batched: 40 + 3*8 = 64.
	if per, batch := run(false), run(true); batch >= per {
		t.Errorf("batched push not cheaper: batch=%d per-token=%d", batch, per)
	}
}

func TestPopNAmortizedCostAndFIFO(t *testing.T) {
	s := New(CostModel{QueuePop: 40, QueuePopPer: 8})
	q := s.NewQueue("q", 8)
	s.Spawn("p", 0, func(th *Thread) error {
		th.PushN(q, []any{0, 1, 2, 3, 4})
		return nil
	})
	var got []int
	s.Spawn("c", 0, func(th *Thread) error {
		th.Sleep(1) // let the producer fill the queue first
		for len(got) < 5 {
			for _, v := range th.PopN(q, 3) {
				got = append(got, v.(int))
			}
		}
		return nil
	})
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
	// Two batch pops (3+2 tokens): 40+2*8 + 40+8 = 104, plus the 1-tick
	// sleep. Five singleton pops would cost 200.
	if m != 105 {
		t.Errorf("makespan = %d, want 105 (amortized pops)", m)
	}
}

func TestPushNStallHookFiresOncePerBatch(t *testing.T) {
	count := 0
	s := New(flatCost())
	q := s.NewQueue("q", 8)
	q.Stall = func() int64 { count++; return 0 }
	s.Spawn("p", 0, func(th *Thread) error {
		th.PushN(q, []any{0, 1, 2, 3})
		return nil
	})
	s.Spawn("c", 0, func(th *Thread) error {
		for i := 0; i < 4; i++ {
			th.Pop(q)
		}
		return nil
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("Stall fired %d times for one 4-token batch, want 1", count)
	}
}

func TestStalledPushNDiagnosticNamesQueueOnce(t *testing.T) {
	s := New(flatCost())
	q := s.NewQueue("out", 4)
	s.Spawn("producer", 0, func(th *Thread) error {
		th.Push(q, 0)
		th.Push(q, 1)
		th.PushN(q, []any{2, 3, 4}) // only 2 slots free: blocks forever
		return nil
	})
	_, err := s.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "blocked pushing a batch of 3 to queue out (full 2/4") {
		t.Errorf("diagnostic = %v", err)
	}
	// The per-queue diagnostics section names the saturated queue with its
	// occupancy, high-water mark, and blocked pushers.
	if !strings.Contains(msg, "queue out: 2/4 buffered, high-water 2, 1 pusher(s) blocked") {
		t.Errorf("per-queue diagnostic missing:\n%s", msg)
	}
}

func TestPushNSplitsOverCapacityAndBackpressures(t *testing.T) {
	s := New(flatCost())
	q := s.NewQueue("q", 2)
	s.Spawn("p", 0, func(th *Thread) error {
		th.PushN(q, []any{0, 1, 2, 3, 4}) // batch > cap: split + block
		return nil
	})
	var got []int
	s.Spawn("c", 0, func(th *Thread) error {
		for len(got) < 5 {
			th.Charge(100)
			for _, v := range th.PopN(q, 2) {
				got = append(got, v.(int))
			}
		}
		return nil
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestBlockedPopNWokenByBatchPush(t *testing.T) {
	s := New(flatCost())
	q := s.NewQueue("q", 8)
	var got []int
	s.Spawn("c", 0, func(th *Thread) error {
		for _, v := range th.PopN(q, 8) { // blocks on the empty queue
			got = append(got, v.(int))
		}
		return nil
	})
	s.Spawn("p", 0, func(th *Thread) error {
		th.Sleep(50)
		th.PushN(q, []any{0, 1, 2})
		return nil
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("woken PopN got %v, want [0 1 2]", got)
	}
}

// TestBatchedFIFOQuick: random mixes of batched and singleton push/pop
// must preserve FIFO order and deliver every token exactly once.
func TestBatchedFIFOQuick(t *testing.T) {
	run := func(costs []uint16, capacity, pushB, popB uint8) bool {
		if len(costs) == 0 {
			return true
		}
		if len(costs) > 48 {
			costs = costs[:48]
		}
		capn := int(capacity%8) + 1
		pb := int(pushB%4) + 1
		cb := int(popB%4) + 1
		s := New(DefaultCostModel())
		q := s.NewQueue("q", capn)
		n := len(costs)
		s.Spawn("producer", 0, func(th *Thread) error {
			for i := 0; i < n; i += pb {
				th.Charge(int64(costs[i]))
				var batch []any
				for j := i; j < i+pb && j < n; j++ {
					batch = append(batch, j)
				}
				th.PushN(q, batch)
			}
			return nil
		})
		got := make([]int, 0, n)
		s.Spawn("consumer", 0, func(th *Thread) error {
			for len(got) < n {
				th.Charge(int64(costs[len(got)]) / 2)
				for _, v := range th.PopN(q, cb) {
					got = append(got, v.(int))
				}
			}
			return nil
		})
		if _, err := s.Run(); err != nil {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueueStallHookDelaysTokens(t *testing.T) {
	run := func(stall int64) int64 {
		s := New(flatCost())
		q := s.NewQueue("q", 4)
		if stall > 0 {
			st := stall
			q.Stall = func() int64 { return st }
		}
		s.Spawn("p", 0, func(th *Thread) error {
			th.Push(q, 1)
			return nil
		})
		s.Spawn("c", 0, func(th *Thread) error {
			th.Pop(q)
			return nil
		})
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base, stalled := run(0), run(900)
	if stalled != base+900 {
		t.Errorf("stalled makespan = %d, base = %d, want +900", stalled, base)
	}
}

// liveGoroutines waits briefly for exiting goroutines to be reaped and
// returns the live count.
func liveGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunReleasesThreadsOnStall: a run that ends with suspended threads —
// a deadlock, either watchdog budget, or a release of an unheld lock —
// must stop every one of them, so repeated stalled runs leave no
// goroutine (and no captured stack) behind.
func TestRunReleasesThreadsOnStall(t *testing.T) {
	stalls := map[string]func(s *Scheduler){
		"deadlock": func(s *Scheduler) {
			q := s.NewQueue("q", 1)
			for i := 0; i < 3; i++ {
				s.Spawn("popper", 0, func(th *Thread) error {
					th.Pop(q)
					return nil
				})
			}
		},
		"vtime-budget": func(s *Scheduler) {
			s.Watchdog = Watchdog{MaxVTime: 1000}
			for i := 0; i < 3; i++ {
				s.Spawn("spinner", 0, func(th *Thread) error {
					for {
						th.Sleep(100)
					}
				})
			}
		},
		"event-budget": func(s *Scheduler) {
			s.Watchdog = Watchdog{MaxEvents: 50}
			for i := 0; i < 3; i++ {
				s.Spawn("livelock", 0, func(th *Thread) error {
					for {
						th.Sleep(0)
					}
				})
			}
		},
		"bad-release": func(s *Scheduler) {
			l := s.NewLock("l", Mutex)
			q := s.NewQueue("q", 1)
			s.Spawn("popper", 0, func(th *Thread) error {
				th.Pop(q)
				return nil
			})
			s.Spawn("releaser", 0, func(th *Thread) error {
				th.Release(l) // never acquired
				return nil
			})
		},
	}
	for name, setup := range stalls {
		before := runtime.NumGoroutine()
		stopped := 0
		for i := 0; i < 100; i++ {
			s := New(flatCost())
			setup(s)
			for _, th := range s.threads {
				body := th.body
				th.body = func(th *Thread) error {
					defer func() { stopped++ }()
					return body(th)
				}
			}
			if _, err := s.Run(); err == nil {
				t.Fatalf("%s: run did not stall", name)
			}
		}
		if after := liveGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before 100 stalled runs, %d after", name, before, after)
		}
		if stopped == 0 {
			t.Errorf("%s: no stalled thread body was unwound", name)
		}
	}
}

// TestPanickingBodySurfacesFromRun: a panic in a thread body comes out of
// Run on the caller's goroutine (not as a process crash), and the other
// suspended threads are stopped on the way out.
func TestPanickingBodySurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(flatCost())
	q := s.NewQueue("q", 1)
	unwound := false
	s.Spawn("waiter", 0, func(th *Thread) error {
		defer func() { unwound = true }()
		th.Pop(q)
		return nil
	})
	s.Spawn("bomb", 0, func(th *Thread) error {
		th.Sleep(10)
		panic("boom")
	})
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("recovered %v, want the body's panic", p)
			}
		}()
		s.Run()
		t.Error("Run returned normally")
	}()
	if !unwound {
		t.Error("the suspended waiter was not stopped")
	}
	if after := liveGoroutines(before); after > before {
		t.Errorf("%d goroutines before, %d after", before, after)
	}
}

// handoffPingPong is the mutex half of the handoff probe: threads
// ping-ponging one lock, every Acquire and Release one scheduler event.
func handoffPingPong(s *Scheduler, threads, rounds int) {
	l := s.NewLock("probe", Mutex)
	for i := 0; i < threads; i++ {
		s.Spawn("ping", 0, func(th *Thread) error {
			for r := 0; r < rounds; r++ {
				th.Acquire(l)
				th.Charge(50)
				th.Release(l)
				th.Charge(50)
			}
			return nil
		})
	}
}

// handoffPipeline is the queue half: a three-stage pipeline, every Push
// and Pop one scheduler event.
func handoffPipeline(s *Scheduler, tokens int) {
	q1, q2 := s.NewQueue("q1", 32), s.NewQueue("q2", 32)
	s.Spawn("stage0", 0, func(th *Thread) error {
		for i := 0; i < tokens; i++ {
			th.Charge(30)
			th.Push(q1, i)
		}
		return nil
	})
	s.Spawn("stage1", 0, func(th *Thread) error {
		for i := 0; i < tokens; i++ {
			v := th.Pop(q1)
			th.Charge(30)
			th.Push(q2, v)
		}
		return nil
	})
	s.Spawn("stage2", 0, func(th *Thread) error {
		for i := 0; i < tokens; i++ {
			th.Pop(q2)
			th.Charge(30)
		}
		return nil
	})
}

// BenchmarkHandoff reports host time per scheduler event (one handoff
// between the scheduler and a simulated thread) on the mutex ping-pong
// and the three-stage pipeline.
func BenchmarkHandoff(b *testing.B) {
	const rounds, tokens = 1000, 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(DefaultCostModel())
		handoffPingPong(s, 2, rounds)
		handoffPipeline(s, tokens)
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	events := 2*2*rounds + 4*tokens
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// TestHandoffZeroAlloc: a scheduler event allocates nothing. Doubling the
// rounds of a mutex ping-pong must not add a single allocation:
// everything a run allocates is per-thread setup. Uncontended (one thread
// per lock) covers the bare handoff; contended (four threads on one lock)
// adds the ordered waiter queue and the grant on release.
func TestHandoffZeroAlloc(t *testing.T) {
	for _, threads := range []int{1, 4} {
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(20, func() {
				s := New(DefaultCostModel())
				handoffPingPong(s, threads, rounds)
				handoffPingPong(s, threads, rounds)
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(200), allocs(400); long != short {
			t.Errorf("%d thread(s) per lock: allocations grow with events: %v for 200 rounds, %v for 400",
				threads, short, long)
		}
	}
}
