package exec

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/sanitize"
	"repro/internal/types"
	"repro/internal/vm/des"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// frame is the main-function execution state owned by one worker.
type frame struct {
	locals []value.Value
	regs   []value.Value
	// sharedSrc tags registers whose value was loaded from a shared slot
	// (stored as slot+1; 0 means untagged — a dense slice instead of a map
	// keeps the per-instruction tag bookkeeping off the heap); member calls
	// re-read tagged cells inside their atomic section.
	sharedSrc []int
}

func newFrame(f *ir.Func) *frame {
	fr := &frame{
		locals:    make([]value.Value, len(f.Locals)),
		regs:      make([]value.Value, f.NumRegs),
		sharedSrc: make([]int, f.NumRegs),
	}
	for i := range fr.locals {
		fr.locals[i] = value.Zero(f.Locals[i].Type)
	}
	return fr
}

// clone copies the frame (for worker-private and per-token frames).
func (fr *frame) clone() *frame {
	nf := &frame{
		locals:    make([]value.Value, len(fr.locals)),
		regs:      make([]value.Value, len(fr.regs)),
		sharedSrc: make([]int, len(fr.sharedSrc)),
	}
	copy(nf.locals, fr.locals)
	copy(nf.regs, fr.regs)
	return nf
}

// stepper executes main-frame instructions on behalf of one simulated
// thread, bridging to the interpreter for callee bodies.
type stepper struct {
	m  *machine
	th *des.Thread
	it *interp.Thread
	fr *frame

	// sharedActive enables shared-cell interposition (only inside the
	// parallelized loop, after promotion).
	sharedActive bool

	// privatized redirects commutative member updates to per-thread
	// shadow state: member calls skip their lock acquisition and
	// privCommits counts commits per set, published by one synchronized
	// bulk merge per set at loop exit (mergePrivatized). Legal because
	// COMMSET membership declares any interleaving of member calls —
	// including the deferred merge order — equivalent.
	privatized  bool
	privCommits map[*types.Set]int

	// effects counts externalized events this stepper performed: member
	// commits, shared-cell writes, and effectful builtin calls. Together
	// with interp.Thread.HeapWrites it gates DOALL iteration re-execution.
	effects int

	flushed int64 // portion of it.Cost already charged to th

	// invokeFn is the one reusable invoke closure for main-frame calls on
	// the fast substrate; it reads the call set by execCallArgs in
	// callIn/callArgs/callMember. Exec-level calls never nest within one
	// stepper (callee bodies run in the interpreter, which has its own
	// reusable closure), so a single set of fields suffices, and
	// interceptor-level retries reuse them unchanged.
	invokeFn   func() ([]value.Value, error)
	callIn     *ir.Instr
	callArgs   []value.Value
	callMember bool
}

func (m *machine) newStepper(th *des.Thread, fr *frame) *stepper {
	st := &stepper{m: m, th: th, fr: fr}
	st.it = interp.NewThread(m.env)
	st.it.ID = th.ID
	if m.cfg.Sanitize != nil {
		st.it.Tracer = m.cfg.Sanitize
	}
	st.it.Interceptor = func(t *interp.Thread, in *ir.Instr, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error) {
		switch ci := m.callee(in); {
		case ci.builtin:
			// Builtins fail atomically (an injected failure fires before
			// the builtin runs), so call-level retry is safe.
			return st.invokeBuiltin(ci, args, invoke)
		case ci.member:
			return st.withMemberSync(ci, args, nil, nil, invoke)
		}
		return invoke()
	}
	return st
}

// setTags renders a member's commsets for the sanitizer, memoized.
func (m *machine) setTags(fn string) []sanitize.SetTag {
	if t, ok := m.setTagCache[fn]; ok {
		return t
	}
	sets := m.cfg.Model.SetsOf[fn]
	t := make([]sanitize.SetTag, len(sets))
	for i, s := range sets {
		t[i] = sanitize.SetTag{Name: s.Name, Self: s.SelfSet}
	}
	if m.setTagCache == nil {
		m.setTagCache = map[string][]sanitize.SetTag{}
	}
	m.setTagCache[fn] = t
	return t
}

// snapState hands the sanitizer the executor-side pre-state: the global
// heap and the current shared-cell values.
func (m *machine) snapState() (map[string]value.Value, map[int]value.Value) {
	cells := make(map[int]value.Value, len(m.cells))
	for slot, c := range m.cells {
		cells[slot] = c.v
	}
	return m.env.Globals.Snapshot(), cells
}

// invokeBuiltin runs one builtin call — member-synchronized when member —
// retrying transient injected failures with exponential backoff charged in
// virtual time. User-function calls are never retried here: they may have
// externalized partial work, and their inner builtin calls retry
// individually through the interceptor.
func (st *stepper) invokeBuiltin(ci *callInfo, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error) {
	run := func() ([]value.Value, error) {
		if ci.member {
			return st.withMemberSync(ci, args, nil, nil, invoke)
		}
		rets, err := invoke()
		st.flush()
		return rets, err
	}
	r := st.m.cfg.Recovery
	for attempt := 0; ; attempt++ {
		rets, err := run()
		if err == nil {
			if ci.effectful {
				st.effects++
			}
			return rets, nil
		}
		if r == nil || !IsTransient(err) || attempt >= r.callRetries() {
			return nil, err
		}
		st.m.stats.callRetries++
		st.th.Sleep(r.backoff(attempt))
	}
}

// flush charges interpreter-accumulated cost to the simulated thread.
func (st *stepper) flush() {
	if d := st.it.Cost - st.flushed; d > 0 {
		st.th.Charge(d)
		st.flushed = st.it.Cost
	}
}

// withMemberSync executes body under the synchronization required for a
// commutative member; a successful call counts as an externalized effect
// (its commit is visible to other threads, so the iteration that made it
// cannot be re-executed). args and the shared-cell slot wirings feed the
// sanitizer's member-extent record when a monitor is attached.
func (st *stepper) withMemberSync(ci *callInfo, args []value.Value, argSlots, outSlots map[int]int, body func() ([]value.Value, error)) ([]value.Value, error) {
	rets, err := st.memberSyncInner(ci, args, argSlots, outSlots, body)
	if err == nil {
		st.effects++
	}
	return rets, err
}

// memberSyncInner executes body under the synchronization required for a
// commutative member: locks of every (non-nosync) set the member belongs
// to, acquired in global rank order and released in reverse (Section 4.6).
func (st *stepper) memberSyncInner(ci *callInfo, args []value.Value, argSlots, outSlots map[int]int, body func() ([]value.Value, error)) ([]value.Value, error) {
	m := st.m
	name, lockSets := ci.name, ci.lockSets
	st.flush()
	if mon := m.cfg.Sanitize; mon != nil {
		// The member extent opens after synchronization is in place (the
		// snapshot sees the serialized pre-state) and closes before the
		// locks drop, so every access inside the atomic section is
		// attributed to this invocation.
		inner := body
		body = func() ([]value.Value, error) {
			mon.MemberEnter(st.th.ID, name, m.setTags(name), args, argSlots, outSlots, m.snapState)
			rets, err := inner()
			mon.MemberExit(st.th.ID, rets, err)
			return rets, err
		}
	}
	if st.privatized && len(lockSets) > 0 {
		// Privatized commutative update: the call mutates this thread's
		// shadow copy with no synchronization at all; the per-set commit
		// is published by the bulk merge at loop exit. (The simulator
		// serializes real execution, so the underlying substrate update
		// is atomic; only the timing model changes — the same modelling
		// argument as TM.)
		if st.privCommits == nil {
			st.privCommits = map[*types.Set]int{}
		}
		for _, s := range lockSets {
			st.privCommits[s]++
		}
		rets, err := body()
		st.flush()
		return rets, err
	}
	switch m.mode {
	case SyncLib:
		// Thread-safe library: members synchronize internally; charge a
		// small atomic-operation overhead, no serialization.
		st.th.Charge(m.cfg.Cost.SpinAcquire)
		rets, err := body()
		st.flush()
		return rets, err
	case SyncMutex, SyncSpin:
		for _, s := range lockSets {
			st.th.Acquire(m.locks[s])
		}
		rets, err := body()
		st.flush()
		for i := len(lockSets) - 1; i >= 0; i-- {
			st.th.Release(m.locks[lockSets[i]])
		}
		return rets, err
	case SyncTM:
		// Timing-level TM (DESIGN.md): semantics come from the lock; the
		// cost model adds commit overhead and conflict-driven retry
		// charges from the commit log.
		tStart := st.th.VTime
		for _, s := range lockSets {
			st.th.Acquire(m.locks[s])
		}
		workStart := st.th.VTime
		rets, err := body()
		st.flush()
		workCost := st.th.VTime - workStart
		for i := len(lockSets) - 1; i >= 0; i-- {
			st.th.Release(m.locks[lockSets[i]])
		}
		aborts := m.tm.conflicts(lockSets, tStart, st.th.VTime)
		if m.cfg.ExtraAborts != nil {
			aborts += m.cfg.ExtraAborts()
		}
		st.th.Charge(m.cfg.Cost.TMCommit + int64(aborts)*(workCost+m.cfg.Cost.TMAbortPenalty))
		m.tm.record(lockSets, tStart, st.th.VTime)
		return rets, err
	}
	return nil, fmt.Errorf("exec: unknown sync mode")
}

// privMergeCost is the virtual cost of folding one thread's shadow copy
// of one set's state into the shared copy inside the merge's critical
// section (a bulk combine, amortized over the whole loop).
const privMergeCost = 300

// mergePrivatized publishes the thread's privatized commutative state:
// one synchronized bulk merge per touched set, acquired in global rank
// order under the run's sync mode. Merge order across threads is
// irrelevant by the commutativity annotation, so any virtual-time
// interleaving of these merges yields a valid serialization.
func (st *stepper) mergePrivatized() {
	if len(st.privCommits) == 0 {
		return
	}
	m := st.m
	m.stats.privMerges++
	sets := make([]*types.Set, 0, len(st.privCommits))
	for _, s := range m.cfg.Model.Sets {
		if st.privCommits[s] > 0 {
			sets = append(sets, s) // Model.Sets is already in rank order
		}
	}
	for _, s := range sets {
		switch m.mode {
		case SyncLib:
			st.th.Charge(m.cfg.Cost.SpinAcquire + privMergeCost)
		case SyncMutex, SyncSpin:
			st.th.Acquire(m.locks[s])
			st.th.Charge(privMergeCost)
			st.th.Release(m.locks[s])
		case SyncTM:
			st.th.Acquire(m.locks[s])
			st.th.Charge(privMergeCost)
			st.th.Release(m.locks[s])
			st.th.Charge(m.cfg.Cost.TMCommit)
		}
	}
	st.privCommits = nil
}

// stop describes why instruction stepping halted.
type stop struct {
	ret     bool      // an OpRet executed
	next    *ir.Instr // first instruction outside the set (nil on ret)
	nextBlk int       // its block
}

// exec runs instructions starting at `start` while inSet admits them.
func (st *stepper) exec(start *ir.Instr, inSet func(*ir.Instr) bool) (stop, error) {
	f := st.m.la.Fn
	cur := start
	for {
		if cur == nil {
			return stop{}, fmt.Errorf("exec: fell off instruction stream in %s", f.Name)
		}
		if !inSet(cur) {
			return stop{next: cur, nextBlk: st.m.instrPos[cur.ID].block}, nil
		}
		branch, isRet, err := st.stepInstr(cur)
		if err != nil {
			return stop{}, err
		}
		if isRet {
			return stop{ret: true}, nil
		}
		if branch >= 0 {
			blk := f.BlockByID(branch)
			if len(blk.Instrs) == 0 {
				return stop{}, fmt.Errorf("exec: branch to empty block b%d", branch)
			}
			cur = blk.Instrs[0]
			continue
		}
		loc := st.m.instrPos[cur.ID]
		blk := f.BlockByID(loc.block)
		if loc.index+1 >= len(blk.Instrs) {
			return stop{}, fmt.Errorf("exec: block b%d missing terminator", loc.block)
		}
		cur = blk.Instrs[loc.index+1]
	}
}

// runBlocks executes from the start of block `from` until entering block
// `until` (or returning from the function when until is -1).
func (st *stepper) runBlocks(from, until int) error {
	f := st.m.la.Fn
	blk := f.BlockByID(from)
	if len(blk.Instrs) == 0 {
		return fmt.Errorf("exec: empty block b%d", from)
	}
	inSet := func(in *ir.Instr) bool {
		return until < 0 || st.m.instrPos[in.ID].block != until
	}
	s, err := st.exec(blk.Instrs[0], inSet)
	if err != nil {
		return err
	}
	if !s.ret && until >= 0 && s.nextBlk != until {
		return fmt.Errorf("exec: stopped at b%d, expected b%d", s.nextBlk, until)
	}
	return nil
}

// groupSet returns the dense membership set of an instruction group,
// memoized per backing list: groups (units, condition, post increment) are
// fixed for the whole run but executed once per iteration, so the set is
// built once instead of per execution.
func (m *machine) groupSet(instrs []*ir.Instr) []bool {
	key := groupKey{first: instrs[0], n: len(instrs)}
	if set, ok := m.groupSets[key]; ok {
		return set
	}
	set := make([]bool, len(m.instrPos))
	for _, in := range instrs {
		set[in.ID] = true
	}
	if m.groupSets == nil {
		m.groupSets = map[groupKey][]bool{}
	}
	m.groupSets[key] = set
	return set
}

// runGroup executes one instruction group (a unit, the condition, or the
// post increment) to completion on the current frame.
func (st *stepper) runGroup(instrs []*ir.Instr) (stop, error) {
	if len(instrs) == 0 {
		return stop{}, nil
	}
	set := st.m.groupSet(instrs)
	return st.exec(instrs[0], func(in *ir.Instr) bool { return set[in.ID] })
}

// stepInstr executes one instruction. It returns the branch target block
// (-1 when falling through) and whether an OpRet executed.
func (st *stepper) stepInstr(in *ir.Instr) (branchTo int, isRet bool, err error) {
	st.th.Charge(interp.CostPerInstr)
	fr := st.fr
	clearTag := func(dst int) {
		if dst >= 0 {
			fr.sharedSrc[dst] = 0
		}
	}
	switch in.Op {
	case ir.OpConst:
		clearTag(in.Dst)
		fr.regs[in.Dst] = in.Val
	case ir.OpLoadLocal:
		clearTag(in.Dst)
		if st.sharedActive && st.m.isShared(in.Slot) {
			if mon := st.m.cfg.Sanitize; mon != nil {
				mon.Cell(st.th.ID, in.Slot, false)
			}
			fr.regs[in.Dst] = st.m.cellAt[in.Slot].v
			fr.sharedSrc[in.Dst] = in.Slot + 1
		} else {
			fr.regs[in.Dst] = fr.locals[in.Slot]
		}
	case ir.OpStoreLocal:
		if st.sharedActive && st.m.isShared(in.Slot) {
			st.effects++
			if mon := st.m.cfg.Sanitize; mon != nil {
				mon.Cell(st.th.ID, in.Slot, true)
			}
			st.m.cellAt[in.Slot].v = fr.regs[in.A]
		} else {
			fr.locals[in.Slot] = fr.regs[in.A]
		}
	case ir.OpLoadGlobal:
		clearTag(in.Dst)
		if mon := st.m.cfg.Sanitize; mon != nil {
			mon.TraceGlobal(st.th.ID, in.Name, false)
		}
		if fa := st.m.fast; fa != nil && fa.gslot[in.ID] >= 0 {
			fr.regs[in.Dst] = st.m.env.Globals.GetSlot(int(fa.gslot[in.ID]))
		} else {
			fr.regs[in.Dst] = st.m.env.Globals.Get(in.Name)
		}
	case ir.OpStoreGlobal:
		st.it.HeapWrites++
		if mon := st.m.cfg.Sanitize; mon != nil {
			mon.TraceGlobal(st.th.ID, in.Name, true)
		}
		if fa := st.m.fast; fa != nil && fa.gslot[in.ID] >= 0 {
			st.m.env.Globals.SetSlot(int(fa.gslot[in.ID]), fr.regs[in.A])
		} else {
			st.m.env.Globals.Set(in.Name, fr.regs[in.A])
		}
	case ir.OpBin:
		clearTag(in.Dst)
		v, e := interp.EvalBinInstr(in, fr.regs[in.A], fr.regs[in.B])
		if e != nil {
			return 0, false, fmt.Errorf("%s: %v", in.Pos, e)
		}
		fr.regs[in.Dst] = v
	case ir.OpUn:
		clearTag(in.Dst)
		v, e := interp.EvalUnInstr(in, fr.regs[in.A])
		if e != nil {
			return 0, false, fmt.Errorf("%s: %v", in.Pos, e)
		}
		fr.regs[in.Dst] = v
	case ir.OpCall:
		clearTag(in.Dst)
		if err := st.execCall(in); err != nil {
			return 0, false, err
		}
	case ir.OpBr:
		return in.Targets[0], false, nil
	case ir.OpCondBr:
		if fr.regs[in.A].AsBool() {
			return in.Targets[0], false, nil
		}
		return in.Targets[1], false, nil
	case ir.OpRet:
		return -1, true, nil
	}
	return -1, false, nil
}

// execCall performs a top-level call in the main frame, applying member
// synchronization, shared-argument refresh, and shared OutSlot writeback.
// On the fast substrate the argument slice is carved from the interpreter
// thread's scratch arena (released once the call's results are consumed;
// see interp.Thread.ScratchSlice).
func (st *stepper) execCall(in *ir.Instr) error {
	if st.m.fast == nil {
		return st.execCallArgs(in, make([]value.Value, len(in.Args)))
	}
	mark := st.it.ScratchMark()
	err := st.execCallArgs(in, st.it.ScratchSlice(len(in.Args)))
	st.it.ScratchRelease(mark)
	return err
}

func (st *stepper) execCallArgs(in *ir.Instr, args []value.Value) error {
	fr := st.fr
	for i, r := range in.Args {
		args[i] = fr.regs[r]
	}
	ci := st.m.callee(in)
	member := ci.member
	mon := st.m.cfg.Sanitize

	// The sanitizer's replay needs the shared-cell wiring of a member
	// call: which argument indices are re-read from which cells, and
	// which return indices write back to which cells.
	var argSlots, outSlots map[int]int
	if member && st.sharedActive && mon != nil {
		for i, r := range in.Args {
			if tag := fr.sharedSrc[r]; tag != 0 {
				if argSlots == nil {
					argSlots = map[int]int{}
				}
				argSlots[i] = tag - 1
			}
		}
		for i, slot := range in.OutSlots {
			if st.m.isShared(slot) {
				if outSlots == nil {
					outSlots = map[int]int{}
				}
				outSlots[i] = slot
			}
		}
	}

	var invoke func() ([]value.Value, error)
	if st.m.fast != nil {
		if st.invokeFn == nil {
			st.invokeFn = st.invokeCurrent
		}
		st.callIn, st.callArgs, st.callMember = in, args, member
		invoke = st.invokeFn
	} else {
		invoke = func() ([]value.Value, error) {
			st.callIn, st.callArgs, st.callMember = in, args, member
			return st.invokeCurrent()
		}
	}

	var rets []value.Value
	var err error
	switch {
	case ci.builtin:
		rets, err = st.invokeBuiltin(ci, args, invoke)
	case member:
		rets, err = st.withMemberSync(ci, args, argSlots, outSlots, invoke)
	default:
		rets, err = invoke()
		st.flush()
	}
	if err != nil {
		return err
	}
	if in.Dst >= 0 {
		if len(rets) == 0 {
			return fmt.Errorf("%s: call %s returned no value", in.Pos, in.Name)
		}
		fr.regs[in.Dst] = rets[0]
	}
	return st.finishCall(in, member, mon, rets)
}

// invokeCurrent performs the call staged in callIn/callArgs/callMember:
// shared-argument refresh inside the atomic section, the call itself, and
// shared OutSlot writeback.
func (st *stepper) invokeCurrent() ([]value.Value, error) {
	in, args, member := st.callIn, st.callArgs, st.callMember
	fr := st.fr
	mon := st.m.cfg.Sanitize
	if member && st.sharedActive {
		// Re-read shared-sourced arguments inside the atomic section so
		// the read-modify-write of shared scalars is not lost.
		for i, r := range in.Args {
			if tag := fr.sharedSrc[r]; tag != 0 {
				slot := tag - 1
				if mon != nil {
					mon.Cell(st.th.ID, slot, false)
				}
				args[i] = st.m.cellAt[slot].v
			}
		}
	}
	rets, err := st.it.Call(in, args)
	if err != nil {
		return nil, err
	}
	// Shared OutSlots are written inside the atomic section.
	if member && st.sharedActive {
		for i, slot := range in.OutSlots {
			if st.m.isShared(slot) {
				st.effects++
				if mon != nil {
					mon.Cell(st.th.ID, slot, true)
				}
				st.m.cellAt[slot].v = rets[i]
			}
		}
	}
	return rets, nil
}

// finishCall writes a call's OutSlot results back to frame locals (shared
// slots were already written inside the atomic section for member calls).
func (st *stepper) finishCall(in *ir.Instr, member bool, mon *sanitize.Monitor, rets []value.Value) error {
	fr := st.fr
	if len(in.OutSlots) > 0 {
		if len(rets) != len(in.OutSlots) {
			return fmt.Errorf("%s: region %s returned %d values, want %d", in.Pos, in.Name, len(rets), len(in.OutSlots))
		}
		for i, slot := range in.OutSlots {
			if st.sharedActive && st.m.isShared(slot) {
				if !member {
					st.effects++
					if mon != nil {
						mon.Cell(st.th.ID, slot, true)
					}
					st.m.cellAt[slot].v = rets[i]
				}
				// Member writes already landed in the cell under the lock.
			} else {
				fr.locals[slot] = rets[i]
			}
		}
	}
	return nil
}

// tmEntry is one committed transaction in the TM conflict log.
type tmEntry struct {
	sets       []*types.Set
	start, end int64
}

// tmLog is a bounded log of recent commits used to model optimistic
// conflicts: a transaction aborts once for every overlapping committed
// transaction touching one of its sets.
type tmLog struct {
	entries []tmEntry
}

const tmLogCap = 512

func (l *tmLog) record(sets []*types.Set, start, end int64) {
	l.entries = append(l.entries, tmEntry{sets: sets, start: start, end: end})
	if len(l.entries) > tmLogCap {
		l.entries = l.entries[len(l.entries)-tmLogCap:]
	}
}

func (l *tmLog) conflicts(sets []*types.Set, start, end int64) int {
	n := 0
	for i := range l.entries {
		e := &l.entries[i]
		if e.end <= start || e.start >= end {
			continue
		}
		if intersects(e.sets, sets) {
			n++
		}
	}
	return n
}

func intersects(a, b []*types.Set) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
