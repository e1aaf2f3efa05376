//go:build go1.23

package des

import "iter"

// start makes t's body a coroutine: Scheduler.resume drives it with next,
// Thread.yield suspends it, and Scheduler.stopAll unwinds it with stop.
func (t *Thread) start() {
	t.next, t.stop = iter.Pull(t.run)
}

// run is the coroutine body. A finished body leaves a reqDone event
// pending, which the scheduler processes in virtual-time order like any
// other. A stopped body unwinds through threadStopped, recovered here; any
// other panic is re-raised and surfaces from the scheduler's next call.
func (t *Thread) run(suspend func(struct{}) bool) {
	t.suspend = suspend
	defer func() {
		if p := recover(); p != nil {
			if _, stopped := p.(threadStopped); !stopped {
				panic(p)
			}
		}
	}()
	err := t.body(t)
	t.pending = request{kind: reqDone, err: err}
	t.reqTime = t.VTime
}
