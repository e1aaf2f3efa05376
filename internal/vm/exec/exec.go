// Package exec runs COMMSET programs under the schedules produced by the
// parallelizing transforms, on top of the deterministic discrete-event
// multicore simulator.
//
// The executors reproduce the code the paper's MTCG-style backend would
// generate, at unit granularity:
//
//   - Sequential: the reference run; its virtual cost is the baseline.
//   - DOALL: N workers each execute the loop-control machinery privately and
//     run the body of iterations i with i mod N == worker, exactly like a
//     statically scheduled DOALL loop with privatized induction variables.
//   - DSWP / PS-DSWP: one thread per stage (R replicas for the parallel
//     stage), connected by bounded lock-free queues carrying per-iteration
//     tokens. The dispatcher (stage 0) owns loop control; a parallel stage
//     receives iterations round-robin and the following sequential stage
//     merges them back in iteration order, preserving deterministic output
//     for sequential stages (the paper's in-order print stage).
//
// The synchronization engine (paper Section 4.6) wraps every commutative
// member call: locks of every set the member belongs to are acquired in
// global rank order and released in reverse, guaranteeing deadlock freedom
// together with the acyclic commset graph and acyclic queue network. Four
// mechanisms are modelled: mutex, spin, transactional memory (timing model:
// commit cost plus conflict-driven retry charges over a commit log), and
// lib (thread-safe library, no compiler-inserted synchronization).
//
// Shared mutable scalars (frame slots read-modified-written by member
// calls) live in shared cells: a member call re-reads them at entry and
// writes them back at exit inside its atomic section, so concurrent
// commutative updates are never lost.
package exec

import (
	"fmt"

	"repro/internal/commset"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/sanitize"
	"repro/internal/transform"
	"repro/internal/types"
	"repro/internal/vm/des"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// SyncMode selects the concurrency-control mechanism for member calls.
type SyncMode int

// Synchronization mechanisms (paper Section 4.6).
const (
	SyncMutex SyncMode = iota
	SyncSpin
	SyncTM
	SyncLib
)

// String names the mechanism as in Table 2.
func (m SyncMode) String() string {
	switch m {
	case SyncMutex:
		return "Mutex"
	case SyncSpin:
		return "Spin"
	case SyncTM:
		return "TM"
	case SyncLib:
		return "Lib"
	}
	return "?"
}

// Config bundles everything needed to execute a compiled program.
type Config struct {
	Prog     *ir.Program
	Builtins map[string]interp.BuiltinFn
	Model    *commset.Model
	Cost     des.CostModel

	// QueueCap bounds pipeline queues (default 32).
	QueueCap int

	// Tune applies the adaptive-scheduling knobs: the DOALL iteration
	// schedule, the pipeline-queue batch size, and privatized commutative
	// updates. The zero value reproduces the paper's fixed policies.
	Tune transform.Tuning

	// Auto, when set, enables the profile-guided auto-scheduler: before
	// the measured run, a short calibration slice is executed per
	// candidate tuning and the fastest candidate replaces Tune.
	Auto *AutoOptions

	// MaxIters, when positive, caps the number of loop iterations the
	// parallel executors run (the auto-scheduler's calibration slices).
	MaxIters int64

	// Recovery enables the fault-recovery policies (nil keeps the legacy
	// abort-on-first-error behavior).
	Recovery *Recovery

	// Watchdog bounds virtual time and scheduler events; forwarded to the
	// simulator so livelocks and stalls become diagnosed errors.
	Watchdog des.Watchdog

	// PushDelay, when set, returns extra virtual latency for a push on the
	// named pipeline queue (wired to a fault injector's QueueDelay).
	PushDelay func(queue string) int64

	// ExtraAborts, when set, returns synthetic additional TM conflict
	// aborts to charge on the next commit (a TM conflict storm).
	ExtraAborts func() int

	// Effectful names builtins with externally visible effects: a failed
	// DOALL iteration that completed one cannot be re-executed.
	Effectful map[string]bool

	// CrashCheck, when set, arms the crash/restart subsystem: it is called
	// exactly once per crash tick — one DOALL iteration pass or one
	// pipeline token — of each worker role, and reports whether the role's
	// thread dies now and whether the death is permanent (wired to a fault
	// injector's CrashNow). Arming it also activates the checkpoint layer;
	// see crash.go for the recovery model.
	CrashCheck func(role string) (die, permanent bool)

	// Straggle, when set, arms the straggler subsystem: it is called
	// exactly once per pass of each DOALL worker role (and per served
	// request of each service worker) and returns the slowdown factor of
	// that pass (1 = full speed; wired to a fault injector's SlowNow). The
	// pass's virtual cost is stretched by the factor at its end. Steal
	// tuning (Tune.Steal) is the repair: idle workers adopt the slowed
	// worker's un-started range.
	Straggle func(role string) float64

	// Sanitize, when set, attaches the dynamic sanitizer: the monitor
	// receives happens-before edges from the scheduler, memory accesses
	// from the interpreter, and member-extent boundaries from the
	// stepper. Hooks run outside cost accounting, so a sanitized run's
	// virtual time is bit-for-bit identical to a plain run.
	Sanitize *sanitize.Monitor
}

func (c *Config) queueCap() int {
	if c.QueueCap > 0 {
		return c.QueueCap
	}
	return 32
}

// Result reports one execution.
type Result struct {
	VirtualTime int64 // simulated makespan in cost units
	Threads     int
	Schedule    string
	Sync        SyncMode

	// Tune is the tuning the run executed with (the auto-scheduler's pick
	// when Config.Auto was set).
	Tune transform.Tuning

	// Resilience statistics (zero unless recovery is enabled).
	CallRetries int  // transient member/builtin calls retried
	IterRetries int  // DOALL iterations re-executed
	Attempts    int  // execution attempts consumed by RunResilient
	FellBack    bool // RunResilient degraded to the sequential fallback
	Recovered   bool // injected faults were absorbed

	// Crash/restart statistics (zero unless a crash plan was armed).
	Restarts      int  // worker threads restarted from a checkpoint
	Repartitioned int  // permanently dead DOALL workers whose remaining iterations were re-partitioned
	Degraded      bool // the run survived in degraded mode (re-partition or sequential fallback)
	// RestartHistory lists every crash in order: thread, vtime, checkpoint
	// age, and replayed-work count.
	RestartHistory []RestartRecord
	// PrivMerges counts privatized-shadow bulk merges published (exactly
	// one per worker incarnation chain that touched a set, crash or not).
	PrivMerges int
	// Steals counts iteration ranges adopted over the DOALL steal board
	// plus backlog requests served by parked service workers (zero unless
	// Tune.Steal).
	Steals int
	// WorkerJoins lists the virtual times at which DOALL worker chains
	// (and salvage runners) retired, in join order — the raw material of
	// loop-completion-skew metrics. Empty for non-DOALL schedules.
	WorkerJoins []int64
}

// RunSequential executes the program sequentially and returns its virtual
// time — the baseline for every speedup in the evaluation. When recovery is
// enabled, transient builtin failures are retried with exponential backoff
// charged as virtual cost.
func RunSequential(cfg Config) (*Result, error) {
	env := interp.NewEnv(cfg.Prog, cfg.Builtins)
	th := interp.NewThread(env)
	retries := 0
	if r := cfg.Recovery; r != nil {
		th.Interceptor = func(t *interp.Thread, in *ir.Instr, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error) {
			if in.Callee < len(cfg.Prog.Order) {
				return invoke() // user function: inner builtin calls retry individually
			}
			for attempt := 0; ; attempt++ {
				rets, err := invoke()
				if err == nil || !IsTransient(err) || attempt >= r.callRetries() {
					return rets, err
				}
				retries++
				t.Cost += r.backoff(attempt)
			}
		}
	}
	if err := th.RunMain(); err != nil {
		return nil, err
	}
	return &Result{
		VirtualTime: th.Cost,
		Threads:     1,
		Schedule:    "Sequential",
		CallRetries: retries,
		Recovered:   retries > 0,
	}, nil
}

// RunSequentialSanitized executes the program sequentially with the
// sanitizer monitor attached (normally in VerifyAll mode): every member
// invocation is recorded — the first few per member with a full
// pre-state snapshot — so the commute oracle can replay all same-set
// pairs afterwards. Sequential runs have no races to observe; this is
// the path behind commsetvet's dynamic verification and discharge.
func RunSequentialSanitized(cfg Config, mon *sanitize.Monitor) (*Result, error) {
	env := interp.NewEnv(cfg.Prog, cfg.Builtins)
	th := interp.NewThread(env)
	th.Tracer = mon
	tags := map[string][]sanitize.SetTag{}
	setTags := func(fn string) []sanitize.SetTag {
		if t, ok := tags[fn]; ok {
			return t
		}
		sets := cfg.Model.SetsOf[fn]
		t := make([]sanitize.SetTag, len(sets))
		for i, s := range sets {
			t[i] = sanitize.SetTag{Name: s.Name, Self: s.SelfSet}
		}
		tags[fn] = t
		return t
	}
	snap := func() (map[string]value.Value, map[int]value.Value) {
		return env.Globals.Snapshot(), nil
	}
	th.Interceptor = func(t *interp.Thread, in *ir.Instr, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error) {
		if len(cfg.Model.SetsOf[in.Name]) == 0 {
			return invoke()
		}
		mon.MemberEnter(t.ID, in.Name, setTags(in.Name), args, nil, nil, snap)
		rets, err := invoke()
		mon.MemberExit(t.ID, rets, err)
		return rets, err
	}
	if err := th.RunMain(); err != nil {
		return nil, err
	}
	return &Result{VirtualTime: th.Cost, Threads: 1, Schedule: "Sequential"}, nil
}

// Run executes the program with the target loop parallelized per the
// schedule using the given mechanism and thread count. Sequential schedules
// ignore threads.
func Run(cfg Config, la *pipeline.LoopAnalysis, sched *transform.Schedule, mode SyncMode, threads int) (*Result, error) {
	if sched.Kind == transform.Sequential {
		r, err := RunSequential(cfg)
		if err != nil {
			return nil, err
		}
		r.Sync = mode
		return r, nil
	}
	if la.Fn.Name != "main" {
		return nil, fmt.Errorf("exec: target loop must be in main, not %s", la.Fn.Name)
	}
	if threads < 1 {
		threads = 1
	}
	if cfg.Auto != nil {
		cfg.Tune = autoTune(cfg, la, sched, mode, threads)
		cfg.Auto = nil
	}

	m := newMachine(cfg, la, sched, mode)
	sim := des.New(cfg.Cost)
	sim.Watchdog = cfg.Watchdog
	if cfg.Sanitize != nil {
		sim.Probe = cfg.Sanitize
	}
	m.sim = sim
	for _, set := range cfg.Model.Sets {
		kind := des.Mutex
		if mode == SyncSpin || mode == SyncTM {
			kind = des.Spin
		}
		m.locks[set] = sim.NewLock("set:"+set.Name, kind)
	}

	var runErr error
	sim.Spawn("main", 0, func(th *des.Thread) error {
		err := m.runMain(th, threads)
		if err != nil {
			runErr = err
		}
		return err
	})
	makespan, simErr := sim.Run()
	// A diagnosed unrecoverable fault is the root cause; prefer it over the
	// watchdog/deadlock report it may have triggered downstream.
	if m.failDiag != nil {
		return nil, m.failDiag
	}
	if simErr != nil {
		return nil, simErr
	}
	if runErr != nil {
		return nil, runErr
	}
	return &Result{
		VirtualTime:    makespan,
		Threads:        threads,
		Schedule:       schedLabel(sched, cfg.Tune),
		Sync:           mode,
		Tune:           cfg.Tune,
		CallRetries:    m.stats.callRetries,
		IterRetries:    m.stats.iterRetries,
		Restarts:       m.stats.restarts,
		Repartitioned:  m.stats.repartitioned,
		Degraded:       m.stats.repartitioned > 0,
		RestartHistory: m.restarts,
		PrivMerges:     m.stats.privMerges,
		Steals:         m.stats.steals,
		WorkerJoins:    m.workerJoins,
		Recovered:      m.stats.callRetries > 0 || m.stats.iterRetries > 0 || m.stats.restarts > 0,
	}, nil
}

// schedLabel renders the schedule name plus the non-default tuning knobs,
// e.g. "DOALL {chunked(4)+priv}".
func schedLabel(sched *transform.Schedule, tune transform.Tuning) string {
	if tune.IsZero() {
		return sched.String()
	}
	return sched.String() + " {" + tune.String() + "}"
}

// sharedCell is the shared storage of one promoted frame slot.
type sharedCell struct {
	v value.Value
}

// machine holds the cross-thread execution state of one parallel run.
type machine struct {
	cfg   Config
	la    *pipeline.LoopAnalysis
	sched *transform.Schedule
	mode  SyncMode

	sim   *des.Scheduler
	env   *interp.Env
	locks map[*types.Set]*des.Lock
	cells map[int]*sharedCell
	// cellAt is the dense shared-cell lookup (indexed by frame slot, nil
	// for private slots); cells stays the iteration-order registry.
	cellAt []*sharedCell

	// fast, when non-nil, is the slot-resolved global metadata of the
	// compiled substrate (interp.FastEnabled at machine construction). The
	// legacy stepper keeps its name-keyed heap access.
	fast *machineFast

	// callees memoizes callInfo by callee index (ir.Instr.Callee).
	callees []*callInfo

	// setTagCache memoizes the sanitizer's per-member commset tags.
	setTagCache map[string][]sanitize.SetTag

	tm tmLog

	// instrPos locates every instruction of main: block ID and index,
	// indexed by the dense instruction ID.
	instrPos []instrLoc
	// unitOf maps loop instruction IDs to unit indices (-1 for control,
	// noUnit for instructions outside the loop), indexed by instruction ID.
	unitOf []int
	// groupSets memoizes the dense membership sets instruction groups are
	// executed under (see stepper.runGroup).
	groupSets map[groupKey][]bool
	// exitBlock is the loop's unique exit target.
	exitBlock int

	// svc, when non-nil, marks a service-mode (open-system) run: the
	// executors record per-request latency, admission, and degradation
	// state here instead of treating the loop as a closed batch.
	svc *svcState

	// failDiag records the first unrecoverable fault (resilient mode only);
	// the simulator serializes threads, so plain fields suffice.
	failDiag *FailureDiag
	// restarts is the crash/restart history, in death order.
	restarts []RestartRecord
	// ckRef is the immutable loop-entry frame every compressed checkpoint
	// of the current DOALL loop deltas against (see ckframe.go).
	ckRef *frame
	// workerJoins records DOALL worker-chain retirement times, join order.
	workerJoins []int64
	stats       struct {
		callRetries   int
		iterRetries   int
		restarts      int
		repartitioned int
		privMerges    int
		steals        int
	}
}

// resilient reports whether recovery policies are enabled.
func (m *machine) resilient() bool { return m.cfg.Recovery != nil }

// fail records the first unrecoverable fault; under deterministic
// scheduling the first failure is the root cause, later ones are fallout.
func (m *machine) fail(role string, err error) {
	if m.failDiag == nil {
		m.failDiag = &FailureDiag{Thread: role, Sched: m.sched.String(), Sync: m.mode, Err: err, Restarts: m.restarts}
	}
}

// failed reports whether an unrecoverable fault has been recorded.
func (m *machine) failed() bool { return m.failDiag != nil }

type instrLoc struct {
	block int
	index int
}

// groupKey identifies an instruction group by its backing list.
type groupKey struct {
	first *ir.Instr
	n     int
}

// noUnit marks instructions outside the parallelized loop in unitOf.
const noUnit = -2

// callInfo is resolved callee metadata: whether the callee is a
// commutative member, whether it is a builtin with externally visible
// effects, and the rank-ordered lock sets a member call must acquire
// (Model.LockSets allocates a fresh slice per query, so the resolution is
// worth memoizing).
type callInfo struct {
	name      string
	member    bool
	builtin   bool
	effectful bool
	lockSets  []*types.Set
}

// callee returns the memoized callInfo of call instruction in's callee.
// The memo is indexed by callee index, which is program-wide, so main's
// calls and the interceptor's callee-side calls share it. Simulated
// threads are serialized by the discrete-event scheduler, so it needs no
// lock.
func (m *machine) callee(in *ir.Instr) *callInfo {
	if ci := m.callees[in.Callee]; ci != nil {
		return ci
	}
	name := in.Name
	ci := &callInfo{
		name:      name,
		member:    len(m.cfg.Model.SetsOf[name]) > 0,
		builtin:   in.Callee >= len(m.env.Prog.Order),
		effectful: m.cfg.Effectful[name],
		lockSets:  m.cfg.Model.LockSets(name),
	}
	m.callees[in.Callee] = ci
	return ci
}

// machineFast carries the slot-indexed fast layer of one machine: the
// global heap slot of each of main's global loads and stores, indexed by
// the dense instruction ID.
type machineFast struct {
	gslot []int32
}

// buildFast precomputes the slot-indexed tables for main's instructions.
func (m *machine) buildFast(numInstrs int) *machineFast {
	fa := &machineFast{gslot: make([]int32, numInstrs)}
	for i := range fa.gslot {
		fa.gslot[i] = -1
	}
	for _, b := range m.la.Fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoadGlobal || in.Op == ir.OpStoreGlobal {
				fa.gslot[in.ID] = int32(m.env.Globals.SlotOf(in.Name))
			}
		}
	}
	return fa
}

func newMachine(cfg Config, la *pipeline.LoopAnalysis, sched *transform.Schedule, mode SyncMode) *machine {
	numInstrs := la.Fn.NumInstrs()
	m := &machine{
		cfg:      cfg,
		la:       la,
		sched:    sched,
		mode:     mode,
		env:      interp.NewEnv(cfg.Prog, cfg.Builtins),
		locks:    map[*types.Set]*des.Lock{},
		cells:    map[int]*sharedCell{},
		instrPos: make([]instrLoc, numInstrs),
	}
	m.callees = make([]*callInfo, len(m.env.Prog.Callees))
	m.cellAt = make([]*sharedCell, len(la.Fn.Locals))
	for _, s := range sched.SharedSlots {
		c := &sharedCell{}
		m.cells[s] = c
		m.cellAt[s] = c
	}
	for _, b := range la.Fn.Blocks {
		for i, in := range b.Instrs {
			m.instrPos[in.ID] = instrLoc{block: b.ID, index: i}
		}
	}
	m.unitOf = make([]int, numInstrs)
	for i := range m.unitOf {
		m.unitOf[i] = noUnit
	}
	for ui, instrs := range la.Units.Units {
		for _, in := range instrs {
			m.unitOf[in.ID] = ui
		}
	}
	for _, in := range la.Units.Cond {
		m.unitOf[in.ID] = -1
	}
	for _, in := range la.Units.Post {
		m.unitOf[in.ID] = -1
	}
	m.exitBlock = -1
	for _, e := range la.Loop.Exits {
		m.exitBlock = e
		break
	}
	if interp.FastEnabled {
		m.fast = m.buildFast(numInstrs)
	}
	return m
}

// isShared reports whether the slot is promoted to a shared cell.
func (m *machine) isShared(slot int) bool {
	return slot >= 0 && slot < len(m.cellAt) && m.cellAt[slot] != nil
}

// runMain executes main: prologue up to the loop, the parallel loop, and
// the epilogue after it.
func (m *machine) runMain(th *des.Thread, threads int) error {
	f := m.la.Fn
	fr := newFrame(f)
	st := m.newStepper(th, fr)

	// Prologue: entry block to the loop header.
	if err := st.runBlocks(0, m.la.Loop.Header); err != nil {
		return err
	}

	// Promote shared slots into cells.
	for slot, cell := range m.cells {
		cell.v = fr.locals[slot]
	}

	var err error
	switch m.sched.Kind {
	case transform.DOALL:
		err = m.runDOALL(th, fr, threads)
	case transform.DSWP, transform.PSDSWP:
		err = m.runPipeline(th, fr, threads)
	default:
		return fmt.Errorf("exec: unsupported schedule kind %v", m.sched.Kind)
	}
	if err != nil {
		return err
	}

	// Demote shared cells back to the frame.
	for slot, cell := range m.cells {
		fr.locals[slot] = cell.v
	}

	// Epilogue: from the loop exit to the end of main.
	if m.exitBlock < 0 {
		return nil
	}
	return st.runBlocks(m.exitBlock, -1)
}
