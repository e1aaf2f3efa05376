package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"

	"repro/internal/builtins"
	"repro/internal/transform"
	"repro/internal/vm/exec"
)

// The golden vtime file (testdata/golden_vtimes.txt) pins the simulator's
// per-cell virtual times and output hashes, one "key  result" line per
// cell. TestGoldenVTimes checks every cell; the host benchmark checks the
// cells of its own pass against the same lines.

// seqKey names a primary-variant sequential baseline in the golden file.
func seqKey(wl string, threads int) string {
	return fmt.Sprintf("grid/%s/seq/t%d", wl, threads)
}

// gridKey names a primary-variant schedule cell in the golden file.
func gridKey(wl string, kind transform.Kind, mode exec.SyncMode, threads int) string {
	return fmt.Sprintf("grid/%s/%v/%v/t%d", wl, kind, mode, threads)
}

// goldenResult renders a run's golden-file result: its virtual time and
// output hash.
func goldenResult(vt int64, w *builtins.World) string {
	return fmt.Sprintf("vt=%d out=%s", vt, worldHash(w))
}

// worldHash fingerprints a run's observable output (console lines, then
// log lines) in emission order: the simulator is deterministic, so even
// DOALL output order is part of the contract.
func worldHash(w *builtins.World) string {
	h := fnv.New64a()
	for _, lines := range [][]string{w.Console, w.LogLines()} {
		for _, l := range lines {
			io.WriteString(h, l)
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// readGolden parses a golden vtime file into key → result.
func readGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read golden file: %w", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "  ")
		if !ok {
			return nil, fmt.Errorf("bench: malformed golden line %q", line)
		}
		want[k] = v
	}
	return want, nil
}
