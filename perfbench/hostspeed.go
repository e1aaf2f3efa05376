package main

import (
	"slices"
	"time"
)

// The host runs the benchmark at speeds up to about 2× apart: other
// tenants of a shared VM slow its CPU for seconds to minutes, and CPU time
// does not remove that. So the benchmark also times a reference kernel —
// fixed work that uses no code of the repository — between jobs, and
// scales its times to a host on which the kernel takes refNominal: a
// job's time is reported as its CPU time × refNominal ÷ the median of the
// kernel's CPU times over the same pass. A slow stretch of the host slows
// the jobs and the kernel together and cancels out; a change to the
// repository moves the jobs and leaves the kernel alone.
const (
	// refNominal is the kernel's CPU time on the host the scale refers
	// to. On the 2-vCPU VM the benchmark was written on, the kernel took
	// from 1.0 to 2.3 ms between jobs as the host's speed varied.
	refNominal = 2 * time.Millisecond
	// refEvery is the job CPU time between two runs of the kernel: it
	// costs about 2% of a pass and gives about 300 samples in 30 s.
	refEvery = 100 * time.Millisecond
)

var refK = newRefKernel()

// refKernel is the reference kernel. Its parts do the kinds of work the
// interpreter and the analyzer do — switch dispatch, map updates,
// interface calls over a tree, small allocations and a sort — each on a
// few hundred KB. It allocates little, so it hardly moves the jobs' heap
// or the garbage collector's pacing; README.md tells which larger
// kernels were tried and why they were not kept.
type refKernel struct {
	code []byte
	m    map[uint64]uint64
	tree refExpr
	keys []int
	buf  []int
	sink uint64
}

func newRefKernel() *refKernel {
	r := newRNG(0, "refkernel", 0)
	k := &refKernel{code: make([]byte, 4096), m: make(map[uint64]uint64, 16384), keys: make([]int, 4096)}
	for i := range k.code {
		k.code[i] = byte(r.intn(6))
	}
	k.tree = buildExpr(r, 10)
	for i := range k.keys {
		k.keys[i] = int(r.next() >> 1)
	}
	k.buf = make([]int, len(k.keys))
	return k
}

// run does the kernel's work once and returns the process CPU time it took.
func (k *refKernel) run() time.Duration {
	c0 := cpuNow()
	var acc, reg uint64 = 1, 3
	for s := 0; s < 12; s++ {
		for _, op := range k.code {
			switch op {
			case 0:
				acc += reg
			case 1:
				acc ^= acc >> 7
			case 2:
				reg = reg*31 + 1
			case 3:
				acc, reg = reg, acc
			case 4:
				if acc&1 == 0 {
					acc >>= 1
				} else {
					acc = 3*acc + 1
				}
			default:
				acc -= reg >> 3
			}
		}
	}
	x := acc
	clear(k.m)
	for i := 0; i < 12000; i++ {
		k.m[mix64(uint64(i))%16384] += uint64(i)
	}
	x += uint64(len(k.m))
	for i := 0; i < 12; i++ {
		x += k.tree.eval(uint64(i))
	}
	var head *refNode
	for i := 0; i < 6000; i++ {
		head = &refNode{next: head, v: uint64(i)}
	}
	for n := head; n != nil; n = n.next {
		x += n.v
	}
	copy(k.buf, k.keys)
	slices.Sort(k.buf)
	k.sink += x + uint64(k.buf[len(k.buf)/2])
	return cpuNow() - c0
}

type refNode struct {
	next *refNode
	v    uint64
	_    [4]uint64
}

// refExpr is a node of a random expression tree of depth 10.
type refExpr interface{ eval(x uint64) uint64 }

type (
	refAdd  struct{ a, b refExpr }
	refMul  struct{ a, b refExpr }
	refLeaf struct{ v uint64 }
)

func (e *refAdd) eval(x uint64) uint64  { return e.a.eval(x) + e.b.eval(x^1) }
func (e *refMul) eval(x uint64) uint64  { return e.a.eval(x) * (e.b.eval(x) | 1) }
func (e *refLeaf) eval(x uint64) uint64 { return e.v ^ x }

func buildExpr(r *rng, depth int) refExpr {
	if depth == 0 {
		return &refLeaf{r.next()}
	}
	if r.intn(2) == 0 {
		return &refAdd{buildExpr(r, depth-1), buildExpr(r, depth-1)}
	}
	return &refMul{buildExpr(r, depth-1), buildExpr(r, depth-1)}
}
