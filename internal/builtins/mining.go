package builtins

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/vm/value"
)

// Mining substrate shared by geti and eclat: a transaction database read
// through a shared cursor, Bitmap itemsets with key-indexed bits (geti),
// order-sensitive Itemsets plus an order-insensitive list-of-itemsets
// (eclat), and a statistics accumulator.

// AddTransactions installs a deterministic synthetic transaction database:
// rows of item IDs in [0, items).
func (w *World) AddTransactions(rows, items, rowLen int) {
	db := cachedTransactions(rows, items, rowLen, func() [][]int64 {
		db := make([][]int64, 0, rows)
		h := uint64(0xfeedface)
		for r := 0; r < rows; r++ {
			row := make([]int64, 0, rowLen)
			seen := map[int64]bool{}
			for len(row) < rowLen {
				h = h*6364136223846793005 + 1442695040888963407
				it := int64((h >> 17) % uint64(items))
				if !seen[it] {
					seen[it] = true
					row = append(row, it)
				}
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			db = append(db, row)
		}
		return db
	})
	w.dbRows = append(w.dbRows, db...)
}

// NumTransactions reports the database size.
func (w *World) NumTransactions() int { return len(w.dbRows) }

func registerMining(r *registrar) {
	// --- transaction database (shared cursor, like shared FILE* state) ---
	r.register("db_read_row", []ast.Type{ast.TInt}, ast.TInt, rw("db.cursor"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			i := args[0].AsInt()
			if i < 0 || i >= int64(len(w.dbRows)) {
				return value.Value{}, 0, errArg("db_read_row", "row out of range")
			}
			w.dbCursor++
			// Return a buffer handle over the row (copied as bytes of ids).
			row := w.dbRows[i]
			ids := make([]byte, 0, len(row))
			for _, it := range row {
				ids = append(ids, byte(it))
			}
			w.bufs = append(w.bufs, ids)
			return value.Int(int64(len(w.bufs) - 1)), 120 + int64(len(row)), nil
		})
	r.register("row_len", []ast.Type{ast.TInt}, ast.TInt, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			b, err := w.buf(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			return value.Int(int64(len(b))), 2, nil
		})
	r.register("row_item", []ast.Type{ast.TInt, ast.TInt}, ast.TInt, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			b, err := w.buf(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			k := args[1].AsInt()
			if k < 0 || k >= int64(len(b)) {
				return value.Value{}, 0, errArg("row_item", "index out of range")
			}
			return value.Int(int64(b[k])), 3, nil
		})

	// --- Bitmap itemsets (geti) ---
	r.register("bitmap_new", []ast.Type{ast.TInt}, ast.TInt, allocates(rw("bitmaps"), "bitmaps"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			n := args[0].AsInt()
			w.bitmaps = append(w.bitmaps, make([]uint64, (n+63)/64))
			return value.Int(int64(len(w.bitmaps) - 1)), 80, nil
		})
	r.register("bitmap_set", []ast.Type{ast.TInt, ast.TInt}, ast.TVoid, instanced(keyed(rw("bitmaps"), "bitmaps", 1), "bitmaps", 0),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			bm, key := args[0].AsInt(), args[1].AsInt()
			if bm < 0 || bm >= int64(len(w.bitmaps)) {
				return value.Value{}, 0, errArg("bitmap_set", "bad bitmap")
			}
			b := w.bitmaps[bm]
			if key < 0 || key >= int64(len(b)*64) {
				return value.Value{}, 0, errArg("bitmap_set", "key out of range")
			}
			b[key/64] |= 1 << (uint(key) % 64)
			return value.Void(), 50, nil
		})
	r.register("bitmap_get", []ast.Type{ast.TInt, ast.TInt}, ast.TBool, instanced(keyed(rw("bitmaps"), "bitmaps", 1), "bitmaps", 0),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			bm, key := args[0].AsInt(), args[1].AsInt()
			if bm < 0 || bm >= int64(len(w.bitmaps)) {
				return value.Value{}, 0, errArg("bitmap_get", "bad bitmap")
			}
			b := w.bitmaps[bm]
			if key < 0 || key >= int64(len(b)*64) {
				return value.Value{}, 0, errArg("bitmap_get", "key out of range")
			}
			return value.Bool(b[key/64]&(1<<(uint(key)%64)) != 0), 50, nil
		})
	r.register("bitmap_count", []ast.Type{ast.TInt}, ast.TInt, instanced(rw("bitmaps"), "bitmaps", 0),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			bm := args[0].AsInt()
			if bm < 0 || bm >= int64(len(w.bitmaps)) {
				return value.Value{}, 0, errArg("bitmap_count", "bad bitmap")
			}
			n := int64(0)
			for _, word := range w.bitmaps[bm] {
				for ; word != 0; word &= word - 1 {
					n++
				}
			}
			return value.Int(n), 60, nil
		})

	// --- STL-like vector (geti output container) ---
	r.register("vec_new", nil, ast.TInt, allocates(rw("vectors"), "vectors"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.vectors = append(w.vectors, nil)
			return value.Int(int64(len(w.vectors) - 1)), 40, nil
		})
	r.register("vec_push", []ast.Type{ast.TInt, ast.TInt}, ast.TVoid, instanced(rw("vectors"), "vectors", 0),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			v := args[0].AsInt()
			if v < 0 || v >= int64(len(w.vectors)) {
				return value.Value{}, 0, errArg("vec_push", "bad vector")
			}
			w.vectors[v] = append(w.vectors[v], args[1].AsInt())
			return value.Void(), 45, nil
		})
	r.register("vec_len", []ast.Type{ast.TInt}, ast.TInt, instanced(rw("vectors"), "vectors", 0),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			v := args[0].AsInt()
			if v < 0 || v >= int64(len(w.vectors)) {
				return value.Value{}, 0, errArg("vec_len", "bad vector")
			}
			return value.Int(int64(len(w.vectors[v]))), 5, nil
		})

	// --- Itemsets (eclat): insertion order is semantically significant
	// (the intersection code depends on a deterministic prefix), unlike the
	// list-of-itemsets container with set semantics. ---
	r.register("iset_new", nil, ast.TInt, allocates(rw("itemsets"), "itemsets"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.itemsets = append(w.itemsets, nil)
			return value.Int(int64(len(w.itemsets) - 1)), 60, nil
		})
	r.register("iset_insert", []ast.Type{ast.TInt, ast.TInt}, ast.TVoid, instanced(rw("itemsets"), "itemsets", 0),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			s := args[0].AsInt()
			if s < 0 || s >= int64(len(w.itemsets)) {
				return value.Value{}, 0, errArg("iset_insert", "bad itemset")
			}
			w.itemsets[s] = append(w.itemsets[s], args[1].AsInt())
			return value.Void(), 40, nil
		})
	// iset_intersect_size is the heavy computation: it intersects two
	// itemsets. It reads only its two operand itemsets, which the
	// workloads keep iteration-local or frozen before the loop, so it is
	// declared effect-free (standing in for the paper's alias analysis
	// proving distinct objects disjoint).
	r.register("iset_intersect_size", []ast.Type{ast.TInt, ast.TInt}, ast.TInt, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			a, b := args[0].AsInt(), args[1].AsInt()
			if a < 0 || a >= int64(len(w.itemsets)) || b < 0 || b >= int64(len(w.itemsets)) {
				return value.Value{}, 0, errArg("iset_intersect_size", "bad itemset")
			}
			sa, sb := w.itemsets[a], w.itemsets[b]
			n := int64(0)
			// Reuse one epoch-stamped scratch map: a per-call allocation
			// here dominates the host profile on the mining workloads.
			// Itemsets only grow by append, so while the handle and length
			// of a are unchanged its stamps are still current (eclat
			// intersects one base itemset against many).
			if w.isectSeen == nil || a != w.isectA || len(sa) != w.isectALen {
				w.isectEpoch++
				if w.isectSeen == nil {
					w.isectSeen = make(map[int64]uint32, 64)
				}
				for _, x := range sa {
					w.isectSeen[x] = w.isectEpoch
				}
				w.isectA, w.isectALen = a, len(sa)
			}
			for _, x := range sb {
				if w.isectSeen[x] == w.isectEpoch {
					n++
				}
			}
			cost := 40 + 45*int64(len(sa)+len(sb))
			return value.Int(n), cost, nil
		})
	r.register("lists_new", nil, ast.TInt, rw("lists"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.lists = append(w.lists, nil)
			return value.Int(int64(len(w.lists) - 1)), 40, nil
		})
	r.register("lists_insert", []ast.Type{ast.TInt, ast.TInt}, ast.TVoid, rw("lists"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			l := args[0].AsInt()
			if l < 0 || l >= int64(len(w.lists)) {
				return value.Value{}, 0, errArg("lists_insert", "bad list")
			}
			w.lists[l] = append(w.lists[l], args[1].AsInt())
			return value.Void(), 45, nil
		})
	r.register("lists_len", []ast.Type{ast.TInt}, ast.TInt, rw("lists"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			l := args[0].AsInt()
			if l < 0 || l >= int64(len(w.lists)) {
				return value.Value{}, 0, errArg("lists_len", "bad list")
			}
			return value.Int(int64(len(w.lists[l]))), 5, nil
		})

	// --- statistics accumulator (eclat's Stats class) ---
	r.register("stats_add", []ast.Type{ast.TInt}, ast.TVoid, rw("stats"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.statsN++
			w.statsSum += float64(args[0].AsInt())
			return value.Void(), 35, nil
		})
	r.register("stats_count", nil, ast.TInt, rw("stats"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(w.statsN), 10, nil
		})
	r.register("stats_mean", nil, ast.TFloat, rw("stats"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			if w.statsN == 0 {
				return value.Float(0), 10, nil
			}
			return value.Float(w.statsSum / float64(w.statsN)), 10, nil
		})
}

// VectorContents returns a sorted copy of a vector (validators compare
// set contents independent of arrival order).
func (w *World) VectorContents(v int) []string {
	if v < 0 || v >= len(w.vectors) {
		return nil
	}
	out := make([]string, 0, len(w.vectors[v]))
	for _, x := range w.vectors[v] {
		out = append(out, fmt.Sprintf("%d", x))
	}
	sort.Strings(out)
	return out
}
