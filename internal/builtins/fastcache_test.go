package builtins

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/vm/value"
)

// refPackets is the uncached packet generator: n packets from a fresh
// generator state.
func refPackets(n int) []packet {
	var out []packet
	h := uint64(0xdeadbeef)
	for i := 0; i < n; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		pat := urlPatterns[h%uint64(len(urlPatterns))]
		out = append(out, packet{
			url:  fmt.Sprintf("%s/%d?session=%d", pat, i, h%9973),
			size: int64(200 + h%1200),
		})
	}
	return out
}

func checkPackets(t *testing.T, n int) {
	t.Helper()
	w := NewWorld()
	w.SetupPackets(n)
	want := refPackets(n)
	if w.NumPackets() != n || len(w.packets) != len(want) || cap(w.packets) != n {
		t.Fatalf("SetupPackets(%d): %d packets, cap %d", n, w.NumPackets(), cap(w.packets))
	}
	for i := range want {
		if w.packets[i] != want[i] {
			t.Fatalf("SetupPackets(%d): packet %d = %+v, want %+v", n, i, w.packets[i], want[i])
		}
	}
	for i, p := range urlPatterns {
		if w.routes[i] != fmt.Sprintf("route%d:%s", i, p) {
			t.Fatalf("route %d = %q", i, w.routes[i])
		}
	}
}

// TestCachedPacketsMatchGenerator: the shared packet pool hands out the
// uncached generator's packets for every size, whichever order sizes are
// requested in, after a reset, and under concurrent callers.
func TestCachedPacketsMatchGenerator(t *testing.T) {
	sizes := []int{0, 1, 160, 400, 600}
	ResetFastCaches()
	for _, n := range sizes {
		checkPackets(t, n)
	}
	ResetFastCaches()
	for i := len(sizes) - 1; i >= 0; i-- {
		checkPackets(t, sizes[i])
	}
	ResetFastCaches()
	checkPackets(t, 160)
	checkPackets(t, 600)

	ResetFastCaches()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sizes {
				n := sizes[(k+g)%len(sizes)]
				w := NewWorld()
				w.SetupPackets(n)
				want := refPackets(n)
				for i := range want {
					if w.packets[i] != want[i] {
						t.Errorf("goroutine %d: SetupPackets(%d) packet %d differs", g, n, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSetupPacketsTwiceAppends: a second SetupPackets appends another
// n packets, leaving the shared pool untouched.
func TestSetupPacketsTwiceAppends(t *testing.T) {
	w := NewWorld()
	w.SetupPackets(3)
	w.SetupPackets(2)
	want := append(refPackets(3), refPackets(2)...)
	if len(w.packets) != len(want) {
		t.Fatalf("%d packets, want %d", len(w.packets), len(want))
	}
	for i := range want {
		if w.packets[i] != want[i] {
			t.Fatalf("packet %d = %+v, want %+v", i, w.packets[i], want[i])
		}
	}
	checkPackets(t, 3)
}

// refIntersect counts the elements of b present in a.
func refIntersect(a, b []int64) int64 {
	in := map[int64]bool{}
	for _, x := range a {
		in[x] = true
	}
	n := int64(0)
	for _, x := range b {
		if in[x] {
			n++
		}
	}
	return n
}

// TestIntersectOperandReuse: iset_intersect_size stays correct while it
// reuses the stamped first operand — after inserting into that operand,
// after switching operands, and on a clone.
func TestIntersectOperandReuse(t *testing.T) {
	w := NewWorld()
	var sets [3]value.Value
	for i := range sets {
		sets[i] = call(t, w, "iset_new")
	}
	for x := int64(0); x < 40; x++ {
		call(t, w, "iset_insert", sets[0], value.Int(x))
		if x%2 == 0 {
			call(t, w, "iset_insert", sets[1], value.Int(x))
		}
		if x%3 == 0 {
			call(t, w, "iset_insert", sets[2], value.Int(x+20))
		}
	}
	check := func(w *World, a, b value.Value) {
		t.Helper()
		got := call(t, w, "iset_intersect_size", a, b).AsInt()
		want := refIntersect(w.itemsets[a.AsInt()], w.itemsets[b.AsInt()])
		if got != want {
			t.Errorf("intersect(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
	check(w, sets[1], sets[0])
	check(w, sets[1], sets[2])
	// Grow the stamped operand: 41 and 42 must now count.
	call(t, w, "iset_insert", sets[1], value.Int(41))
	call(t, w, "iset_insert", sets[2], value.Int(41))
	check(w, sets[1], sets[2])
	check(w, sets[2], sets[1])
	check(w, sets[0], sets[2])
	check(w, sets[1], sets[2])

	c := w.Clone()
	check(c, sets[1], sets[2])
	call(t, c, "iset_insert", sets[1], value.Int(59))
	check(c, sets[1], sets[2])
	check(w, sets[1], sets[2])
	call(t, w, "iset_insert", sets[1], value.Int(23))
	check(w, sets[1], sets[2])
	check(c, sets[1], sets[2])
}

// refEdges is bmp_trace's uncached boundary count.
func refEdges(bm traceBitmap) int {
	edges := 0
	for y := 0; y < bm.h; y++ {
		for x := 0; x < bm.w; x++ {
			if x > 0 && bm.bits[y*bm.w+x] != bm.bits[y*bm.w+x-1] {
				edges++
			}
			if y > 0 && bm.bits[y*bm.w+x] != bm.bits[(y-1)*bm.w+x] {
				edges++
			}
		}
	}
	return edges
}

// TestTraceEdgesMatchUncached: bmp_trace's memoized edge count equals the
// uncached count, cold, warm, on another world sharing the bits, and
// after a reset.
func TestTraceEdgesMatchUncached(t *testing.T) {
	ResetFastCaches()
	for pass := 0; pass < 3; pass++ {
		if pass == 2 {
			ResetFastCaches()
		}
		w := NewWorld()
		w.AddBitmaps(3, 12)
		w.AddBitmaps(1, 7)
		for i, bm := range w.traceBitmaps {
			got := call(t, w, "bmp_trace", value.Int(int64(i))).AsString()
			if want := fmt.Sprintf("path[%d:%d]", i, refEdges(bm)); got != want {
				t.Errorf("pass %d: bmp_trace(%d) = %s, want %s", pass, i, got, want)
			}
		}
	}
}
