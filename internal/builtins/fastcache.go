package builtins

import "sync"

// Substrate memoization. Substrate contents are deterministic functions of
// their generation parameters (AddFile data from the file index, bitmaps
// from their index and side, matrices from the handle, transaction rows
// from a fixed seed, packet i from i alone), and several heavy builtins
// are pure functions of immutable inputs (md5_buf, hmm_score, burn,
// bmp_trace's edge count). The substrate therefore shares generated data
// and memoizes those results across runs and campaign cells — virtual
// cost accounting is untouched, only redundant host work disappears. (The
// builtin registry itself is built once per process; see world.go.)
//
// All cached data is immutable by construction: file data, bitmap bits,
// matrix contents, transaction rows and packets are never written after
// creation (the substrate's only mutating operations replace whole handles
// or write distinct state). Caches are guarded by one mutex — campaign
// cells on host-parallel runs share them safely — and reset when they
// outgrow fastCacheCap, and the packet pool stops growing at fastCacheCap
// packets, so long campaigns cannot accumulate unbounded memory.

const fastCacheCap = 1 << 14

var (
	fastMu     sync.Mutex
	fileCache  map[fileKey][]byte
	bmpCache   map[fileKey][]byte
	matCache   map[matKey][]float64
	txnCache   map[txnKey][][]int64
	md5Cache   map[bufKey]string
	scoreCache map[scoreKey]int64
	burnCache  map[int64]int64
	fltCache   map[floatsKey]string
	edgeCache  map[edgeKey]int

	// pktPool is the packet pool generated so far and pktState the
	// generator state after its last packet; SetupPackets extends it by
	// prefix and hands out clipped prefixes.
	pktPool  []packet
	pktState = uint64(pktSeed)
)

type fileKey struct {
	idx  int
	size int
}

type matKey struct {
	h int64
	n int64
}

type txnKey struct {
	rows, items, rowLen int
}

// bufKey identifies a byte buffer by backing-array identity. The pointer
// in the key keeps the buffer reachable, so an address can never be reused
// by a different live buffer while its entry is cached.
type bufKey struct {
	p *byte
	n int
}

type scoreKey struct {
	seqHash uint64
	seqLen  int
	mat     int64
	matLen  int
}

// edgeKey identifies a potrace bitmap by the identity of its bits and
// its width.
type edgeKey struct {
	bits  bufKey
	width int
}

// floatsKey identifies a float slice by backing-array identity, with the
// same liveness argument as bufKey.
type floatsKey struct {
	p *float64
	n int
}

// cachedFileData returns the deterministic content of file idx with the
// given size, shared across worlds.
func cachedFileData(idx, size int, gen func() []byte) []byte {
	return cachedBytes(&fileCache, fileKey{idx, size}, gen)
}

// cachedBitmap returns the deterministic bits of bitmap idx with the given
// side, shared across worlds.
func cachedBitmap(idx, side int, gen func() []byte) []byte {
	return cachedBytes(&bmpCache, fileKey{idx, side}, gen)
}

func cachedBytes(cache *map[fileKey][]byte, key fileKey, gen func() []byte) []byte {
	fastMu.Lock()
	defer fastMu.Unlock()
	if data, ok := (*cache)[key]; ok {
		return data
	}
	if len(*cache) >= fastCacheCap {
		*cache = nil
	}
	if *cache == nil {
		*cache = map[fileKey][]byte{}
	}
	data := gen()
	(*cache)[key] = data
	return data
}

// cachedMatrix returns the deterministic emission matrix for handle h with
// n states, shared read-only across worlds.
func cachedMatrix(h, n int64, gen func() []float64) []float64 {
	key := matKey{h, n}
	fastMu.Lock()
	defer fastMu.Unlock()
	if m, ok := matCache[key]; ok {
		return m
	}
	if len(matCache) >= fastCacheCap {
		matCache = nil
	}
	if matCache == nil {
		matCache = map[matKey][]float64{}
	}
	m := gen()
	matCache[key] = m
	return m
}

// cachedTransactions returns the deterministic transaction database for
// the given shape, rows shared read-only across worlds.
func cachedTransactions(rows, items, rowLen int, gen func() [][]int64) [][]int64 {
	key := txnKey{rows, items, rowLen}
	fastMu.Lock()
	defer fastMu.Unlock()
	if db, ok := txnCache[key]; ok {
		return db
	}
	if len(txnCache) >= fastCacheCap {
		txnCache = nil
	}
	if txnCache == nil {
		txnCache = map[txnKey][][]int64{}
	}
	db := gen()
	txnCache[key] = db
	return db
}

// cachedMD5 memoizes the digest of an immutable buffer by backing-array
// identity (file contents are shared across worlds, so the
// same arrays recur all campaign long).
func cachedMD5(b []byte, gen func() string) string {
	if len(b) == 0 {
		return gen()
	}
	key := bufKey{&b[0], len(b)}
	fastMu.Lock()
	if s, ok := md5Cache[key]; ok {
		fastMu.Unlock()
		return s
	}
	fastMu.Unlock()
	s := gen()
	fastMu.Lock()
	if len(md5Cache) >= fastCacheCap {
		md5Cache = nil
	}
	if md5Cache == nil {
		md5Cache = map[bufKey]string{}
	}
	md5Cache[key] = s
	fastMu.Unlock()
	return s
}

// cachedScore memoizes hmm_score results. The sequence is identified by a
// content hash (sequences are RNG-draw dependent, so identical contents
// recur across schedules and repeated runs), the matrix by its handle and
// length (matrix content is a pure function of both).
func cachedScore(key scoreKey, gen func() int64) int64 {
	fastMu.Lock()
	if v, ok := scoreCache[key]; ok {
		fastMu.Unlock()
		return v
	}
	fastMu.Unlock()
	v := gen()
	fastMu.Lock()
	if len(scoreCache) >= fastCacheCap {
		scoreCache = nil
	}
	if scoreCache == nil {
		scoreCache = map[scoreKey]int64{}
	}
	scoreCache[key] = v
	fastMu.Unlock()
	return v
}

// cachedBurn memoizes the pure burn mixer by its iteration count.
func cachedBurn(n int64, gen func() int64) int64 {
	fastMu.Lock()
	if v, ok := burnCache[n]; ok {
		fastMu.Unlock()
		return v
	}
	fastMu.Unlock()
	v := gen()
	fastMu.Lock()
	if len(burnCache) >= fastCacheCap {
		burnCache = nil
	}
	if burnCache == nil {
		burnCache = map[int64]int64{}
	}
	burnCache[n] = v
	fastMu.Unlock()
	return v
}

// cachedFloatRender memoizes the observable-state rendering of an
// immutable float slice by backing-array identity (matrix contents, which
// are shared across worlds and the sanitizer re-renders on every
// replay diff). Callers must only pass slices that are never written
// after creation.
func cachedFloatRender(s []float64, gen func() string) string {
	if len(s) == 0 {
		return gen()
	}
	key := floatsKey{&s[0], len(s)}
	fastMu.Lock()
	if r, ok := fltCache[key]; ok {
		fastMu.Unlock()
		return r
	}
	fastMu.Unlock()
	r := gen()
	fastMu.Lock()
	if len(fltCache) >= fastCacheCap {
		fltCache = nil
	}
	if fltCache == nil {
		fltCache = map[floatsKey]string{}
	}
	fltCache[key] = r
	fastMu.Unlock()
	return r
}

// cachedPackets returns the first n deterministic packets, clipped to
// [:n:n]. Packet i does not depend on n, so one pool serves every size:
// a larger n extends it by prefix. Appends only write past every prefix
// already handed out, so readers never see a write. Beyond fastCacheCap
// packets the pool is generated uncached.
func cachedPackets(n int) []packet {
	if n > fastCacheCap {
		pool, _ := genPackets(nil, pktSeed, n)
		return pool
	}
	fastMu.Lock()
	defer fastMu.Unlock()
	if len(pktPool) < n {
		pktPool, pktState = genPackets(pktPool, pktState, n)
	}
	return pktPool[:n:n]
}

// cachedEdges memoizes bmp_trace's boundary count of a potrace bitmap by
// the backing-array identity of its bits (shared across worlds by
// cachedBitmap, and never written) and its width.
func cachedEdges(bits []byte, width int, gen func() int) int {
	if len(bits) == 0 {
		return gen()
	}
	key := edgeKey{bufKey{&bits[0], len(bits)}, width}
	fastMu.Lock()
	if e, ok := edgeCache[key]; ok {
		fastMu.Unlock()
		return e
	}
	fastMu.Unlock()
	e := gen()
	fastMu.Lock()
	if len(edgeCache) >= fastCacheCap {
		edgeCache = nil
	}
	if edgeCache == nil {
		edgeCache = map[edgeKey]int{}
	}
	edgeCache[key] = e
	fastMu.Unlock()
	return e
}

// ResetFastCaches drops every substrate memo, so a measurement can start
// cold.
func ResetFastCaches() {
	fastMu.Lock()
	fileCache, bmpCache, matCache, txnCache, md5Cache = nil, nil, nil, nil, nil
	scoreCache, burnCache, fltCache, edgeCache = nil, nil, nil, nil
	pktPool, pktState = nil, pktSeed
	fastMu.Unlock()
}

// hashBytes is FNV-1a, used to content-address RNG-drawn sequences.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}
