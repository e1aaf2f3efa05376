// Package des is a deterministic discrete-event simulator of a multicore
// machine, the execution substrate for the parallel schedules produced by
// the COMMSET compiler.
//
// The paper evaluates on an 8-core Xeon; this environment has no parallel
// hardware, so (per DESIGN.md) parallel execution is simulated: each
// logical thread runs as a coroutine that executes *real* work (the IR
// interpreter doing real digests, clustering, etc.) while accumulating
// virtual cost units. Threads suspend back to the scheduler at
// synchronization points — lock acquire/release, queue push/pop, sleep —
// and the scheduler processes these events in global virtual-time order, so
// results are bit-for-bit reproducible regardless of host parallelism.
//
// A thread is not a goroutine talking to the scheduler over channels: its
// body is an iter.Pull coroutine (coro.go), so every handoff is a direct
// switch on the caller's goroutine, with no runtime scheduler involvement
// and no allocation. Scheduler.Run stops every coroutine it started on
// every exit path — completion, deadlock, watchdog abort, a failed
// release, or a panicking body — so no thread outlives its simulation.
//
// Locks model the paper's three pessimistic mechanisms (Section 4.6):
// mutexes pay a sleep/wakeup penalty when contended, spin locks burn the
// waiter's virtual time and pay a cache-line penalty proportional to the
// number of contenders, and "lib"/nosync members pay nothing. Queues model
// the software lock-free queues used for pipeline communication, with a
// configurable per-token latency.
package des

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// CostModel holds the virtual-cost parameters of the simulated machine.
type CostModel struct {
	// MutexAcquire/MutexRelease are the uncontended lock costs; MutexWake
	// is the extra sleep/wakeup penalty paid by a mutex waiter.
	MutexAcquire int64
	MutexRelease int64
	MutexWake    int64

	// SpinAcquire/SpinRelease are uncontended costs; SpinContention is the
	// cache-line-bouncing penalty charged per concurrent waiter on a
	// contended acquisition.
	SpinAcquire    int64
	SpinRelease    int64
	SpinContention int64

	// QueuePush/QueuePop are the per-token producer/consumer costs;
	// QueueLatency is the time a token takes to become visible.
	QueuePush    int64
	QueuePop     int64
	QueueLatency int64

	// QueuePushPer/QueuePopPer are the marginal costs of the second and
	// subsequent tokens of a batched PushN/PopN: the first token of a
	// batch pays the full QueuePush/QueuePop, each additional token only
	// the marginal cost (amortized enqueue/dequeue on hot edges).
	QueuePushPer int64
	QueuePopPer  int64

	// TMCommit is the per-transaction commit cost; TMAbortPenalty is added
	// to the re-execution cost on each abort.
	TMCommit       int64
	TMAbortPenalty int64

	// ThreadSpawn is the one-time cost of starting a worker.
	ThreadSpawn int64

	// Checkpoint is the base cost of snapshotting a worker's resumable
	// state (frame, cursors, batched-queue residue); Restore is the base
	// cost of rebuilding a thread from one after a crash or a steal.
	// CheckpointWord/RestoreWord are the marginal per-word costs of the
	// delta/run-length-compressed frame encoding, so a frame that barely
	// diverged from the loop-entry snapshot checkpoints almost for free
	// while a heavily mutated one pays for every literal it carries.
	Checkpoint     int64
	Restore        int64
	CheckpointWord int64
	RestoreWord    int64
}

// DefaultCostModel returns parameters calibrated to reproduce the relative
// behaviour of the paper's mechanisms: spin cheaper than mutex under
// contention, both far cheaper than the work quanta of the benchmarks.
func DefaultCostModel() CostModel {
	return CostModel{
		MutexAcquire: 30, MutexRelease: 20, MutexWake: 600,
		SpinAcquire: 15, SpinRelease: 10, SpinContention: 40,
		QueuePush: 40, QueuePop: 40, QueueLatency: 120,
		QueuePushPer: 8, QueuePopPer: 8,
		TMCommit: 60, TMAbortPenalty: 150,
		ThreadSpawn: 1000,
		Checkpoint:  24, CheckpointWord: 2,
		Restore: 120, RestoreWord: 4,
	}
}

// LockKind selects the synchronization mechanism of a Lock.
type LockKind int

// Lock kinds.
const (
	Mutex LockKind = iota
	Spin
)

// Lock is a scheduler-owned lock.
type Lock struct {
	Name string
	Kind LockKind

	held    bool
	owner   *Thread
	waiters []*Thread // blocked threads, granted in request-time order
}

// Queue is a scheduler-owned bounded queue with per-token latency
// (modelling the software lock-free queues of the DSWP family).
type Queue struct {
	Name string
	Cap  int

	// Stall, when set, returns extra visibility latency for the next
	// pushed token or batch (fault injection: pipeline-queue stalls). It
	// is called exactly once per successful push *operation*, in
	// deterministic order — a batched PushN charges one stall for the
	// whole batch, not one per token.
	Stall func() int64

	items     []queueItem
	waiters   []*Thread // blocked poppers
	blocked   []*Thread // blocked pushers
	highWater int       // deepest occupancy ever reached
}

type queueItem struct {
	val   any
	ready int64 // virtual time at which the consumer can observe it
	seq   int64 // scheduler-wide token number (happens-before probes)
}

// Len reports the number of buffered tokens.
func (q *Queue) Len() int { return len(q.items) }

// HighWater reports the deepest occupancy the queue ever reached — the
// backpressure signal service-mode reports and stall diagnostics surface.
func (q *Queue) HighWater() int { return q.highWater }

// noteDepth refreshes the high-water mark after a push.
func (q *Queue) noteDepth() {
	if len(q.items) > q.highWater {
		q.highWater = len(q.items)
	}
}

// reqKind enumerates thread yield reasons.
type reqKind int

const (
	reqNone reqKind = iota
	reqAcquire
	reqRelease
	reqPush
	reqPushN
	reqPop
	reqPopN
	reqSleep
	reqWake // internal: resume a woken thread, delivering pending.val
	reqDone
)

type request struct {
	kind reqKind
	lock *Lock
	q    *Queue
	val  any
	vals []any // batch payload of a reqPushN
	n    int   // requested batch size of a reqPopN
	d    int64
	err  error
}

type grant struct {
	val   any
	vtime int64
}

// Thread is one simulated logical thread. Methods on Thread are called
// from within the thread's own body, which runs as a coroutine of the
// scheduler.
type Thread struct {
	ID    int
	Name  string
	VTime int64

	sched   *Scheduler
	reqTime int64 // virtual time of the pending request

	pending request
	granted grant // the scheduler's answer to the pending request
	state   threadState
	body    func(*Thread) error

	// The body's coroutine (see coro.go): next resumes it until its next
	// suspend, stop unwinds it, suspend is called by the body to hand
	// control back. next is nil until the thread first runs.
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool

	// Blocked-state bookkeeping for stall diagnostics.
	blockLock  *Lock
	blockQueue *Queue
	blockOp    string
	holds      []*Lock
}

type threadState int

const (
	tReady   threadState = iota // has a pending event at reqTime
	tBlocked                    // waiting on a lock or queue
	tDone
)

// Charge adds local computation cost to the thread's clock.
func (t *Thread) Charge(c int64) { t.VTime += c }

// threadStopped is the panic that unwinds the body of a thread whose
// simulation has ended (see Scheduler.stopAll); the coroutine wrapper
// recovers it.
type threadStopped struct{}

// yield hands the pending request to the scheduler and suspends until the
// grant. A suspend that returns false means the simulation is over: the
// body unwinds instead of running on with no grant.
func (t *Thread) yield(r request) grant {
	t.pending = r
	t.reqTime = t.VTime
	if !t.suspend(struct{}{}) {
		panic(threadStopped{})
	}
	g := t.granted
	t.granted = grant{}
	t.VTime = g.vtime
	return g
}

// Acquire blocks in virtual time until the lock is held by this thread.
func (t *Thread) Acquire(l *Lock) {
	t.yield(request{kind: reqAcquire, lock: l})
}

// Release releases the lock, waking the next waiter.
func (t *Thread) Release(l *Lock) {
	t.yield(request{kind: reqRelease, lock: l})
}

// Push enqueues a token, blocking in virtual time while the queue is full.
func (t *Thread) Push(q *Queue, v any) {
	t.yield(request{kind: reqPush, q: q, val: v})
}

// Pop dequeues a token, blocking in virtual time while the queue is empty.
func (t *Thread) Pop(q *Queue) any {
	g := t.yield(request{kind: reqPop, q: q})
	return g.val
}

// PushN enqueues a batch of tokens in one scheduler event: the first
// token pays QueuePush, each additional token only QueuePushPer, and the
// queue's Stall hook fires once for the whole batch. A batch larger than
// the queue capacity is split into capacity-sized sub-batches. Blocks in
// virtual time until the whole (sub-)batch fits.
func (t *Thread) PushN(q *Queue, vs []any) {
	switch len(vs) {
	case 0:
		return
	case 1:
		t.Push(q, vs[0])
		return
	}
	for len(vs) > 0 {
		n := len(vs)
		if q.Cap > 0 && n > q.Cap {
			n = q.Cap
		}
		t.yield(request{kind: reqPushN, q: q, vals: vs[:n:n]})
		vs = vs[n:]
	}
}

// PopN dequeues up to max buffered tokens in one scheduler event,
// blocking in virtual time while the queue is empty (so it returns at
// least one token). The first token pays QueuePop, each additional token
// only QueuePopPer.
func (t *Thread) PopN(q *Queue, max int) []any {
	if max <= 1 {
		return []any{t.Pop(q)}
	}
	g := t.yield(request{kind: reqPopN, q: q, n: max})
	return g.val.([]any)
}

// Sleep advances the thread's clock by d through the scheduler (so other
// threads' events interleave correctly).
func (t *Thread) Sleep(d int64) {
	t.yield(request{kind: reqSleep, d: d})
}

// Watchdog bounds a simulation so livelock and runaway stalls become
// diagnosed errors instead of hangs. Zero fields disable the checks.
type Watchdog struct {
	// MaxVTime aborts the run when the next event would execute past this
	// virtual time (a progress budget: a healthy run finishes well inside
	// it, a stalled run keeps burning virtual time without completing).
	MaxVTime int64
	// MaxEvents aborts the run after this many scheduler events (a
	// livelock budget: threads exchanging events forever at little or no
	// virtual-time cost).
	MaxEvents int64
}

// Probe observes the scheduler's synchronization events. The sanitizer
// derives happens-before edges from it: lock release→acquire, queue
// push→pop (per token), and spawn parent→child. Probe calls happen
// outside cost accounting, so an attached probe never changes virtual
// time.
type Probe interface {
	ThreadSpawned(parent, child int)
	LockAcquired(thread int, lock string)
	LockReleased(thread int, lock string)
	QueuePushed(thread int, queue string, seqs []int64)
	QueuePopped(thread int, queue string, seqs []int64)
}

// Scheduler coordinates all threads of one simulation.
type Scheduler struct {
	Cost CostModel

	// Probe, when set, observes synchronization events (see Probe). It
	// has no effect on scheduling or virtual time.
	Probe Probe

	// Watchdog, when set, converts stalls and livelocks into diagnosed
	// StallErrors naming every live thread and what it waits on.
	Watchdog Watchdog

	// DiagNote, when set, contributes one line of harness state (e.g. the
	// service runtime's current admission-controller state) to StallError
	// diagnostics, so a stalled run names not just the saturated queue but
	// the admission decisions that filled it.
	DiagNote func() string

	threads []*Thread
	running *Thread // thread whose body is currently executing
	tokSeq  int64   // next queue-token sequence number

	locks  []*Lock
	queues []*Queue

	deaths []DeathRecord

	firstErr error
}

// DeathRecord is one simulated-thread death (an injected crash): which
// thread died, at what virtual time, and why. Deaths are surfaced in
// Watchdog-style StallError diagnostics so a stalled run names the crashes
// that preceded the stall.
type DeathRecord struct {
	Thread string
	VTime  int64
	Reason string
}

// RecordDeath logs a thread death for diagnostics. Called by the executor's
// supervisor when a fault plan kills a simulated thread.
func (s *Scheduler) RecordDeath(thread string, vtime int64, reason string) {
	s.deaths = append(s.deaths, DeathRecord{Thread: thread, VTime: vtime, Reason: reason})
}

// Deaths returns the thread deaths recorded so far, in order.
func (s *Scheduler) Deaths() []DeathRecord { return s.deaths }

// New creates a scheduler with the given cost model.
func New(cost CostModel) *Scheduler {
	return &Scheduler{Cost: cost}
}

// NewLock registers a lock.
func (s *Scheduler) NewLock(name string, kind LockKind) *Lock {
	l := &Lock{Name: name, Kind: kind}
	s.locks = append(s.locks, l)
	return l
}

// NewQueue registers a bounded queue.
func (s *Scheduler) NewQueue(name string, capacity int) *Queue {
	q := &Queue{Name: name, Cap: capacity}
	s.queues = append(s.queues, q)
	return q
}

// Spawn registers a thread starting at the given virtual time. Threads run
// body and terminate when it returns.
func (s *Scheduler) Spawn(name string, start int64, body func(*Thread) error) *Thread {
	t := &Thread{
		ID:    len(s.threads),
		Name:  name,
		VTime: start + s.Cost.ThreadSpawn,
		sched: s,
		state: tReady,
		body:  body,
	}
	t.reqTime = t.VTime
	s.threads = append(s.threads, t)
	if s.Probe != nil {
		parent := -1
		if s.running != nil {
			parent = s.running.ID
		}
		s.Probe.ThreadSpawned(parent, t.ID)
	}
	return t
}

// Run executes the simulation to completion and returns the maximum thread
// finish time (the makespan) or the first thread error. A simulation that
// ends with blocked threads, exceeds the watchdog's virtual-time budget, or
// exceeds its event budget returns a *StallError diagnosing every live
// thread. However Run ends — including a panic from a thread body, which
// it re-raises on the caller's goroutine — every started thread is
// stopped first.
func (s *Scheduler) Run() (int64, error) {
	defer s.stopAll()
	var events int64
	for {
		t := s.pickNext()
		if t == nil {
			break
		}
		if s.Watchdog.MaxVTime > 0 && t.reqTime > s.Watchdog.MaxVTime {
			return s.makespan(), s.stallError("watchdog",
				fmt.Sprintf("no completion by virtual time %d (budget %d)", t.reqTime, s.Watchdog.MaxVTime))
		}
		events++
		if s.Watchdog.MaxEvents > 0 && events > s.Watchdog.MaxEvents {
			return s.makespan(), s.stallError("watchdog",
				fmt.Sprintf("livelock suspected: %d scheduler events without completion (budget %d)", events, s.Watchdog.MaxEvents))
		}
		s.step(t)
	}
	makespan := s.makespan()
	blocked := 0
	for _, t := range s.threads {
		if t.state == tBlocked {
			blocked++
		}
	}
	if s.firstErr != nil {
		return makespan, s.firstErr
	}
	if blocked > 0 {
		return makespan, s.stallError("deadlock",
			fmt.Sprintf("%d thread(s) still blocked at end of simulation", blocked))
	}
	return makespan, nil
}

// stopAll unwinds every started, unfinished thread body, so a run that
// ends with suspended threads (deadlock, watchdog, failed release, panic)
// releases their stacks and everything they captured. Stopping a finished
// coroutine is a no-op.
func (s *Scheduler) stopAll() {
	for _, t := range s.threads {
		if t.stop != nil {
			t.stop()
		}
	}
}

// makespan returns the maximum thread virtual time reached so far.
func (s *Scheduler) makespan() int64 {
	var m int64
	for _, t := range s.threads {
		if t.VTime > m {
			m = t.VTime
		}
	}
	return m
}

// ThreadDiag is one live thread's state inside a StallError.
type ThreadDiag struct {
	Name  string
	VTime int64
	// State describes what the thread is doing: ready, or blocked on a
	// named lock (with its current owner) or queue (with its occupancy).
	State string
	// Holds names the locks the thread currently owns.
	Holds []string
}

// QueueDiag is one queue's occupancy snapshot inside a StallError (and in
// Scheduler.QueueDiags): current depth, capacity, the deepest occupancy
// ever reached, and how many threads are parked on each side. A saturated
// service-mode run names its bottleneck queue through these.
type QueueDiag struct {
	Name           string `json:"name"`
	Len            int    `json:"len"`
	Cap            int    `json:"cap"`
	HighWater      int    `json:"high_water"`
	BlockedPushers int    `json:"blocked_pushers,omitempty"`
	WaitingPoppers int    `json:"waiting_poppers,omitempty"`
}

// QueueDiags snapshots every registered queue that has ever held a token,
// in registration order.
func (s *Scheduler) QueueDiags() []QueueDiag {
	var out []QueueDiag
	for _, q := range s.queues {
		if q.highWater == 0 && len(q.blocked) == 0 && len(q.waiters) == 0 {
			continue
		}
		out = append(out, QueueDiag{
			Name: q.Name, Len: len(q.items), Cap: q.Cap, HighWater: q.highWater,
			BlockedPushers: len(q.blocked), WaitingPoppers: len(q.waiters),
		})
	}
	return out
}

// StallError diagnoses a deadlocked, livelocked, or stalled simulation:
// every non-finished thread with what it waits on and what it holds.
type StallError struct {
	Kind    string // "deadlock" or "watchdog"
	Reason  string
	Threads []ThreadDiag
	// Queues snapshots every active queue — depth, capacity, high-water
	// mark, and parked threads per side — so a stalled service run names
	// the saturated queue directly.
	Queues []QueueDiag
	// Note carries one line of harness state (the Scheduler.DiagNote hook;
	// e.g. the service admission controller's level and shed counters).
	Note string
	// Deaths lists the injected thread crashes that preceded the stall —
	// the restart history a post-mortem needs to see whether the stall is
	// a recovery bug or an unrelated hang.
	Deaths []DeathRecord
}

// Error renders the multi-line diagnostic.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "des: %s — %s", e.Kind, e.Reason)
	for _, t := range e.Threads {
		fmt.Fprintf(&b, "\n  thread %s @t=%d: %s", t.Name, t.VTime, t.State)
		if len(t.Holds) > 0 {
			fmt.Fprintf(&b, "; holds [%s]", strings.Join(t.Holds, ", "))
		}
	}
	for _, q := range e.Queues {
		fmt.Fprintf(&b, "\n  queue %s: %d/%d buffered, high-water %d", q.Name, q.Len, q.Cap, q.HighWater)
		if q.BlockedPushers > 0 {
			fmt.Fprintf(&b, ", %d pusher(s) blocked", q.BlockedPushers)
		}
		if q.WaitingPoppers > 0 {
			fmt.Fprintf(&b, ", %d popper(s) waiting", q.WaitingPoppers)
		}
	}
	if e.Note != "" {
		fmt.Fprintf(&b, "\n  %s", e.Note)
	}
	for _, d := range e.Deaths {
		fmt.Fprintf(&b, "\n  died: %s @t=%d: %s", d.Thread, d.VTime, d.Reason)
	}
	return b.String()
}

// stallError builds a StallError over every live thread, in thread order.
func (s *Scheduler) stallError(kind, reason string) *StallError {
	e := &StallError{Kind: kind, Reason: reason, Queues: s.QueueDiags(), Deaths: s.deaths}
	if s.DiagNote != nil {
		e.Note = s.DiagNote()
	}
	for _, t := range s.threads {
		if t.state == tDone {
			continue
		}
		d := ThreadDiag{Name: t.Name, VTime: t.VTime, State: t.describe()}
		for _, l := range t.holds {
			d.Holds = append(d.Holds, l.Name)
		}
		e.Threads = append(e.Threads, d)
	}
	return e
}

// describe renders what the thread is waiting for.
func (t *Thread) describe() string {
	if t.state != tBlocked {
		return fmt.Sprintf("ready (next event at t=%d)", t.reqTime)
	}
	switch {
	case t.blockLock != nil:
		owner := "nobody"
		if t.blockLock.owner != nil {
			owner = t.blockLock.owner.Name
		}
		return fmt.Sprintf("blocked acquiring lock %s (held by %s, %d waiter(s))",
			t.blockLock.Name, owner, len(t.blockLock.waiters))
	case t.blockQueue != nil && t.blockOp == "pop":
		batch := ""
		if t.pending.kind == reqPopN {
			batch = fmt.Sprintf(" for a batch of up to %d", t.pending.n)
		}
		return fmt.Sprintf("blocked popping queue %s%s (empty, %d pusher(s) blocked)",
			t.blockQueue.Name, batch, len(t.blockQueue.blocked))
	case t.blockQueue != nil && t.blockOp == "push":
		// A stalled batch names its queue once, with the token count —
		// not one diagnostic line per token.
		batch := ""
		if t.pending.kind == reqPushN {
			batch = fmt.Sprintf(" a batch of %d to", len(t.pending.vals))
		}
		return fmt.Sprintf("blocked pushing%s queue %s (full %d/%d, %d popper(s) waiting)",
			batch, t.blockQueue.Name, len(t.blockQueue.items), t.blockQueue.Cap, len(t.blockQueue.waiters))
	}
	return "blocked"
}

// block records why the thread is parked (for stall diagnostics).
func (t *Thread) block(l *Lock, q *Queue, op string) {
	t.state = tBlocked
	t.blockLock, t.blockQueue, t.blockOp = l, q, op
}

// unblock marks the thread runnable again and clears the bookkeeping.
func (t *Thread) unblock() {
	t.state = tReady
	t.blockLock, t.blockQueue, t.blockOp = nil, nil, ""
}

// pickNext returns the ready thread with the smallest (reqTime, ID), or nil
// when every thread is done or blocked.
func (s *Scheduler) pickNext() *Thread {
	var best *Thread
	for _, t := range s.threads {
		if t.state != tReady {
			continue
		}
		if best == nil || t.reqTime < best.reqTime || (t.reqTime == best.reqTime && t.ID < best.ID) {
			best = t
		}
	}
	return best
}

// resume grants the thread's pending request and runs its body until the
// next suspend (or its end). While the body runs, s.running names it so
// Spawn can attribute the parent of a new thread (the spawn
// happens-before edge).
func (s *Scheduler) resume(t *Thread, g grant) {
	prev := s.running
	s.running = t
	t.granted = g
	if t.next == nil {
		t.start()
	}
	t.next()
	s.running = prev
}

// step processes one thread's pending event.
func (s *Scheduler) step(t *Thread) {
	r := t.pending
	switch r.kind {
	case reqNone:
		// First activation.
		s.resume(t, grant{vtime: t.VTime})
	case reqDone:
		t.state = tDone
		if r.err != nil && s.firstErr == nil {
			s.firstErr = r.err
		}
	case reqAcquire:
		s.acquire(t, r.lock)
	case reqRelease:
		s.release(t, r.lock)
	case reqPush:
		s.push(t, r.q, r.val)
	case reqPushN:
		s.pushN(t, r.q, r.vals)
	case reqPop:
		s.pop(t, r.q)
	case reqPopN:
		s.popN(t, r.q, r.n)
	case reqSleep:
		// Reschedule the wake as an ordered event rather than resuming
		// immediately, so threads with earlier virtual times run first.
		t.pending = request{kind: reqWake}
		t.VTime += r.d
		t.reqTime = t.VTime
	case reqWake:
		s.resume(t, grant{val: r.val, vtime: t.VTime})
	}
}

func (s *Scheduler) acquire(t *Thread, l *Lock) {
	if !l.held {
		l.held = true
		l.owner = t
		t.holds = append(t.holds, l)
		if s.Probe != nil {
			s.Probe.LockAcquired(t.ID, l.Name)
		}
		cost := s.Cost.MutexAcquire
		if l.Kind == Spin {
			cost = s.Cost.SpinAcquire
		}
		s.resume(t, grant{vtime: t.VTime + cost})
		return
	}
	t.block(l, nil, "acquire")
	// Keep waiters ordered by (request time, ID): the grant order. A
	// waiter's request time is fixed while it is blocked.
	i, _ := slices.BinarySearchFunc(l.waiters, t, func(w, t *Thread) int {
		if c := cmp.Compare(w.reqTime, t.reqTime); c != 0 {
			return c
		}
		return cmp.Compare(w.ID, t.ID)
	})
	l.waiters = slices.Insert(l.waiters, i, t)
}

func (s *Scheduler) release(t *Thread, l *Lock) {
	if l.owner != t {
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("des: thread %s releases lock %s it does not hold", t.Name, l.Name)
		}
		t.state = tDone
		return
	}
	relCost := s.Cost.MutexRelease
	if l.Kind == Spin {
		relCost = s.Cost.SpinRelease
	}
	relTime := t.VTime + relCost
	for i, h := range t.holds {
		if h == l {
			t.holds = append(t.holds[:i], t.holds[i+1:]...)
			break
		}
	}
	if s.Probe != nil {
		s.Probe.LockReleased(t.ID, l.Name)
	}

	if len(l.waiters) > 0 {
		// Grant to the earliest requester (FIFO by request time, then ID;
		// acquire keeps the waiters in that order).
		w := l.waiters[0]
		l.waiters = slices.Delete(l.waiters, 0, 1)
		l.owner = w
		w.holds = append(w.holds, l)
		wake := maxI64(w.reqTime, relTime)
		switch l.Kind {
		case Mutex:
			wake += s.Cost.MutexWake
		case Spin:
			// Spinners burn their own time; contended handoff pays a
			// cache-line penalty per remaining contender.
			wake += s.Cost.SpinAcquire + s.Cost.SpinContention*int64(len(l.waiters)+1)
		}
		w.unblock()
		w.reqTime = wake
		w.VTime = wake
		w.pending = request{kind: reqWake}
		if s.Probe != nil {
			s.Probe.LockAcquired(w.ID, l.Name)
		}
	} else {
		l.held = false
		l.owner = nil
	}
	s.resume(t, grant{vtime: relTime})
}

func (s *Scheduler) push(t *Thread, q *Queue, v any) {
	if len(q.items) >= q.Cap {
		t.block(nil, q, "push")
		q.blocked = append(q.blocked, t)
		return
	}
	pushTime := t.VTime + s.Cost.QueuePush
	latency := s.Cost.QueueLatency
	if q.Stall != nil {
		latency += q.Stall()
	}
	seq := s.tokSeq
	s.tokSeq++
	q.items = append(q.items, queueItem{val: v, ready: pushTime + latency, seq: seq})
	q.noteDepth()
	if s.Probe != nil {
		s.Probe.QueuePushed(t.ID, q.Name, []int64{seq})
	}
	s.wakePoppers(q)
	s.resume(t, grant{vtime: pushTime})
}

// pushN appends a whole batch in one event. The batch blocks as a unit
// while it does not fit; the Stall hook fires once for the batch and its
// extra latency applies to every token in it.
func (s *Scheduler) pushN(t *Thread, q *Queue, vs []any) {
	if len(q.items)+len(vs) > q.Cap {
		t.block(nil, q, "push")
		q.blocked = append(q.blocked, t)
		return
	}
	pushTime := t.VTime + s.Cost.QueuePush + s.Cost.QueuePushPer*int64(len(vs)-1)
	latency := s.Cost.QueueLatency
	if q.Stall != nil {
		latency += q.Stall()
	}
	var seqs []int64 // token numbers, only for the probe
	if s.Probe != nil {
		seqs = make([]int64, 0, len(vs))
	}
	for _, v := range vs {
		seq := s.tokSeq
		s.tokSeq++
		if seqs != nil {
			seqs = append(seqs, seq)
		}
		q.items = append(q.items, queueItem{val: v, ready: pushTime + latency, seq: seq})
	}
	q.noteDepth()
	if s.Probe != nil {
		s.Probe.QueuePushed(t.ID, q.Name, seqs)
	}
	s.wakePoppers(q)
	s.resume(t, grant{vtime: pushTime})
}

func (s *Scheduler) pop(t *Thread, q *Queue) {
	if len(q.items) == 0 {
		t.block(nil, q, "pop")
		q.waiters = append(q.waiters, t)
		return
	}
	item := q.items[0]
	q.items = q.items[1:]
	if s.Probe != nil {
		s.Probe.QueuePopped(t.ID, q.Name, []int64{item.seq})
	}
	s.wakePushers(t.VTime, q)
	at := maxI64(t.VTime, item.ready) + s.Cost.QueuePop
	s.resume(t, grant{val: item.val, vtime: at})
}

// popN takes up to max buffered tokens in one event; the consumer's
// clock advances to the latest taken token's ready time plus the
// amortized pop cost.
func (s *Scheduler) popN(t *Thread, q *Queue, max int) {
	if len(q.items) == 0 {
		t.block(nil, q, "pop")
		q.waiters = append(q.waiters, t)
		return
	}
	taken, ready, seqs := q.take(max)
	if s.Probe != nil {
		s.Probe.QueuePopped(t.ID, q.Name, seqs)
	}
	s.wakePushers(t.VTime, q)
	at := maxI64(t.VTime, ready) + s.Cost.QueuePop + s.Cost.QueuePopPer*int64(len(taken)-1)
	s.resume(t, grant{val: taken, vtime: at})
}

// take removes up to max items from the head of the queue, returning the
// values, the latest ready time among them, and their token numbers.
func (q *Queue) take(max int) ([]any, int64, []int64) {
	n := max
	if n > len(q.items) {
		n = len(q.items)
	}
	taken := make([]any, n)
	seqs := make([]int64, n)
	var ready int64
	for i := 0; i < n; i++ {
		taken[i] = q.items[i].val
		seqs[i] = q.items[i].seq
		if q.items[i].ready > ready {
			ready = q.items[i].ready
		}
	}
	q.items = q.items[n:]
	return taken, ready, seqs
}

// wakePoppers hands buffered tokens to blocked poppers in block order
// until one side runs out. A blocked PopN receives up to its requested
// count in a single wake at the amortized cost.
func (s *Scheduler) wakePoppers(q *Queue) {
	for len(q.waiters) > 0 && len(q.items) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.pending.kind == reqPopN {
			taken, ready, seqs := q.take(w.pending.n)
			if s.Probe != nil {
				s.Probe.QueuePopped(w.ID, q.Name, seqs)
			}
			w.unblock()
			w.reqTime = maxI64(w.reqTime, ready) + s.Cost.QueuePop + s.Cost.QueuePopPer*int64(len(taken)-1)
			w.VTime = w.reqTime
			w.pending = request{kind: reqWake, val: taken}
			continue
		}
		item := q.items[0]
		q.items = q.items[1:]
		if s.Probe != nil {
			s.Probe.QueuePopped(w.ID, q.Name, []int64{item.seq})
		}
		w.unblock()
		w.reqTime = maxI64(w.reqTime, item.ready) + s.Cost.QueuePop
		w.VTime = w.reqTime
		w.pending = request{kind: reqWake, val: item.val}
	}
}

// wakePushers re-dispatches blocked pushers, in block order, whose whole
// batch now fits the freed space. A batch at the head that still does
// not fit keeps later pushers blocked too, preserving FIFO push order.
func (s *Scheduler) wakePushers(now int64, q *Queue) {
	space := q.Cap - len(q.items)
	for len(q.blocked) > 0 {
		w := q.blocked[0]
		need := 1
		if w.pending.kind == reqPushN {
			need = len(w.pending.vals)
		}
		if need > space {
			return
		}
		space -= need
		q.blocked = q.blocked[1:]
		w.unblock()
		w.reqTime = maxI64(w.reqTime, now)
		w.VTime = w.reqTime
		w.pending = request{kind: w.pending.kind, q: q, val: w.pending.val, vals: w.pending.vals}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
