package builtins

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/vm/value"
)

// potrace substrate: input bitmaps are vectorized into path strings. The
// tracing pass is the heavy compute; reading inputs and writing output
// images are file operations that commute across distinct inputs. In the
// single-output-file mode the writes must stay in sequential order.

// AddBitmaps installs n deterministic synthetic bitmaps of the given size.
// The bits are a pure function of the bitmap index and side, so every
// world shares one read-only copy.
func (w *World) AddBitmaps(n, side int) {
	for b := 0; b < n; b++ {
		bits := cachedBitmap(b, side, func() []byte {
			bits := make([]byte, side*side)
			h := uint64(b)*0x9e3779b97f4a7c15 + 7
			for i := range bits {
				h = h*6364136223846793005 + 1442695040888963407
				if (h>>33)%5 < 2 {
					bits[i] = 1
				}
			}
			return bits
		})
		w.traceBitmaps = append(w.traceBitmaps, traceBitmap{w: side, h: side, bits: bits})
	}
}

// NumBitmaps reports installed bitmap count.
func (w *World) NumBitmaps() int { return len(w.traceBitmaps) }

// OutImages exposes written images for validation.
func (w *World) OutImages() []string { return w.outImages }

func registerTrace(r *registrar) {
	r.register("bmp_count", nil, ast.TInt, effects.Decl{Reads: []effects.Loc{effects.TagLoc("fs.table")}},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(len(w.traceBitmaps))), 20, nil
		})
	r.register("bmp_open", []ast.Type{ast.TInt}, ast.TInt, rw("fs.table"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			i := args[0].AsInt()
			if i < 0 || i >= int64(len(w.traceBitmaps)) {
				return value.Value{}, 0, errArg("bmp_open", "no bitmap")
			}
			return value.Int(i), 140, nil
		})
	// bmp_trace runs a real boundary-following pass over the bitmap and
	// summarizes the traced contours; this is the dominant compute.
	r.register("bmp_trace", []ast.Type{ast.TInt}, ast.TString, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			i := args[0].AsInt()
			if i < 0 || i >= int64(len(w.traceBitmaps)) {
				return value.Value{}, 0, errArg("bmp_trace", "no bitmap")
			}
			bm := w.traceBitmaps[i]
			// Count boundary transitions row-wise and column-wise: a cheap
			// but real stand-in for contour extraction. The count is a pure
			// function of the shared, read-only bits, so it is memoized.
			edges := cachedEdges(bm.bits, bm.w, func() int {
				edges := 0
				for y := 0; y < bm.h; y++ {
					for x := 1; x < bm.w; x++ {
						if bm.bits[y*bm.w+x] != bm.bits[y*bm.w+x-1] {
							edges++
						}
					}
				}
				for x := 0; x < bm.w; x++ {
					for y := 1; y < bm.h; y++ {
						if bm.bits[y*bm.w+x] != bm.bits[(y-1)*bm.w+x] {
							edges++
						}
					}
				}
				return edges
			})
			cost := int64(bm.w*bm.h) * 6
			return value.Str(fmt.Sprintf("path[%d:%d]", i, edges)), cost, nil
		})
	// img_write appends a traced image to the output stream (the shared
	// output file of the multi-image mode).
	r.register("img_write", []ast.Type{ast.TString}, ast.TVoid, rw("fs.out"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.outImages = append(w.outImages, args[0].AsString())
			return value.Void(), 350, nil
		})
}
