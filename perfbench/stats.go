package main

import (
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/builtins"
)

// rng is a splitmix64 stream. Job i of a workload draws from its own
// stream keyed by (seed, workload, i), so the job sequence is a pure
// function of the seed whatever the host speed. The key is mixed twice so
// that the streams of neighbouring jobs start far apart instead of one
// step apart.
type rng struct{ s uint64 }

func newRNG(seed uint64, workload string, i int) *rng {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &rng{s: mix64(mix64(seed^h.Sum64()) ^ uint64(i))}
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stream deals a workload's n job kinds in seeded rounds: job i takes kind
// perm_k[i mod n], where perm_k is a seeded permutation for round
// k = i / n. Every round deals every kind once, so the job mix of a run
// hardly depends on the seed while the order does.
type stream struct {
	seed  uint64
	name  string
	n     int
	round int
	perm  []int
}

func newStream(seed uint64, name string, n int) *stream {
	return &stream{seed: seed, name: name, n: n, round: -1}
}

func (s *stream) pick(i int) int {
	if k := i / s.n; k != s.round {
		s.round = k
		s.perm = make([]int, s.n)
		r := newRNG(s.seed, s.name+"/round", k)
		for j := range s.perm {
			s.perm[j] = j
		}
		for j := s.n - 1; j > 0; j-- {
			x := r.intn(j + 1)
			s.perm[j], s.perm[x] = s.perm[x], s.perm[j]
		}
	}
	return s.perm[i%s.n]
}

// outputHash digests a world's externalized output: console lines, then
// log lines. Unordered schedules externalize a multiset, so their lines
// are sorted first.
func outputHash(w *builtins.World, ordered bool) uint64 {
	h := fnv.New64a()
	for _, lines := range [][]string{w.Console, w.LogLines()} {
		if !ordered {
			lines = append([]string(nil), lines...)
			sort.Strings(lines)
		}
		for _, l := range lines {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// quantile is the linear-interpolation quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLevels are the tail percentiles the benchmark may report, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest percentile in tailLevels, at most max, that
// leaves at least ten samples beyond it, with its value and the number of
// samples beyond it.
func tail(xs []float64, max float64) (pct, value float64, beyond int) {
	s := sortedCopy(xs)
	for _, q := range tailLevels {
		if q > max {
			continue
		}
		beyond = int(math.Floor(float64(len(s))*(1-q) + 1e-9))
		if beyond >= 10 || q == 0.5 {
			return q, quantile(s, q), beyond
		}
	}
	return 0.5, quantile(s, 0.5), len(s) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// cpuNow reads the process's CPU clock (CLOCK_PROCESS_CPUTIME_ID): the
// time the process's threads ran, which excludes time a shared host's
// hypervisor gave the vCPU to other tenants.
func cpuNow() time.Duration {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	// Cannot fail: the clock exists on every Linux and ts is valid.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// resetPeakRSS resets the process's resident-set high-water mark (VmHWM)
// to its current resident set size. Where the kernel does not allow it,
// VmHWM stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
