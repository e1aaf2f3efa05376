package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/builtins"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_vtimes.txt from the current code")

// goldenPath holds the committed per-cell virtual times and output hashes.
// Regenerate it only for a deliberate, documented cost-model change:
//
//	go test ./internal/bench -run TestGoldenVTimes -update-golden
var goldenPath = filepath.Join("testdata", "golden_vtimes.txt")

// goldenThreads are the simulated thread counts of the schedule grid.
var goldenThreads = []int{2, 4, 8}

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

// reportHash fingerprints a campaign cell's whole JSON report, so fields
// the golden line does not spell out (latency percentiles, scale events,
// pair verdicts) are gated too.
func reportHash(t *testing.T, v any) string {
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal golden cell: %v", err)
	}
	h := fnv.New64a()
	h.Write(js)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenCells runs every golden cell and returns key → canonical result:
//   - grid: every workload × kind × sync × goldenThreads cell of the
//     primary variant, plus each compile's sequential baseline;
//   - steal: the steal campaign's smoke cells;
//   - fault: the fault campaign's smoke cells;
//   - service: the service campaign's smoke cells and rate ladder;
//   - sanitize: the sanitizer campaign's smoke cells and negatives.
func goldenCells(t *testing.T) map[string]string {
	out := map[string]string{}
	put := func(key, result string) {
		if _, dup := out[key]; dup {
			t.Fatalf("two golden cells share the key %s", key)
		}
		out[key] = result
	}
	withHostState(true, 1, func() {
		for _, wl := range workloads.All() {
			for _, threads := range goldenThreads {
				cp, err := compileUncached(wl, "comm", threads)
				if err != nil {
					t.Fatalf("compile %s/t%d: %v", wl.Name, threads, err)
				}
				put(fmt.Sprintf("grid/%s/seq/t%d", wl.Name, threads),
					fmt.Sprintf("vt=%d out=%s", cp.SeqCost, worldHash(cp.SeqWorld)))
				for _, kind := range campaignKinds {
					if cp.Schedule(kind) == nil {
						continue
					}
					for _, mode := range wl.Syncs() {
						m, err := cp.runUncached(kind, mode, threads, false)
						if err != nil {
							t.Fatalf("run %s %v/%v/t%d: %v", wl.Name, kind, mode, threads, err)
						}
						put(fmt.Sprintf("grid/%s/%v/%v/t%d", wl.Name, kind, mode, threads),
							fmt.Sprintf("vt=%d out=%s", m.VirtualTime, worldHash(m.World)))
					}
				}
			}
		}

		var buf bytes.Buffer
		steal, err := StealCampaign(&buf, StealOptions{Threads: 8, Seed: 1, Smoke: true})
		if err != nil {
			t.Fatalf("steal campaign:\n%s%v", buf.String(), err)
		}
		for _, c := range steal.Cells {
			put(fmt.Sprintf("steal/%s/%s/steal=%v", c.Workload, c.Plan, c.Steal),
				fmt.Sprintf("outcome=%s vt=%d steals=%d restarts=%d mttr=%d skew=%d",
					c.Outcome, c.VTime, c.Steals, c.Restarts, c.MTTR, c.P99JoinSkew))
		}

		buf.Reset()
		fault, err := FaultCampaign(&buf, CampaignOptions{Threads: 4, Seed: 7, Smoke: true})
		if err != nil {
			t.Fatalf("fault campaign:\n%s%v", buf.String(), err)
		}
		for _, c := range fault.Cells {
			put(fmt.Sprintf("fault/%s/%s/%s/%s", c.Workload, c.Kind, c.Sync, c.Plan),
				fmt.Sprintf("outcome=%s vt=%d baseline=%d restarts=%d repartitioned=%d mttr=%d",
					c.Outcome, c.VTime, c.BaselineVTime, c.Restarts, c.Repartitioned, c.MTTR))
		}

		buf.Reset()
		svc, err := ServiceCampaign(&buf, ServiceOptions{Threads: 4, Seed: 7, Smoke: true})
		if err != nil {
			t.Fatalf("service campaign:\n%s%v", buf.String(), err)
		}
		for _, c := range svc.Cells {
			var makespan, p99 int64
			var completed, steals, restarts int
			if r := c.Result; r != nil {
				makespan, p99, completed, steals, restarts = r.Makespan, r.P99, r.Completed, r.Steals, r.Restarts
			}
			put(fmt.Sprintf("service/%s/%s/%s/%s/%s", c.Service, c.Kind, c.Sync, c.Trace, c.Scenario),
				fmt.Sprintf("outcome=%s makespan=%d p99=%d completed=%d steals=%d restarts=%d report=%s",
					c.Outcome, makespan, p99, completed, steals, restarts, reportHash(t, c)))
		}
		for _, p := range svc.RateLadder {
			put(fmt.Sprintf("service/ladder/%s/%g", p.Service, p.Util),
				fmt.Sprintf("throughput=%g attainment=%g shed=%g abandoned=%d",
					p.ThroughputPerMvt, p.Attainment, p.ShedRate, p.Abandoned))
		}

		buf.Reset()
		san, err := SanitizeCampaign(&buf, SanitizeOptions{Threads: 4, Smoke: true})
		if err != nil {
			t.Fatalf("sanitize campaign:\n%s%v", buf.String(), err)
		}
		for _, c := range san.Cells {
			put(fmt.Sprintf("sanitize/%s/%s/%s/%s/t%d", c.Workload, c.Variant, c.Schedule, c.Sync, c.Threads),
				fmt.Sprintf("vt=%d match=%v races=%d candidates=%d verified=%d violations=%d report=%s",
					c.VirtualTime, c.VTimeMatch, len(c.Races), c.Candidates, c.Verified, c.Violations, reportHash(t, c)))
		}
		for _, n := range san.Negatives {
			put("sanitize/negative/"+n.Name,
				fmt.Sprintf("violations=%d flagged=%v report=%s", n.Violations, n.Flagged, reportHash(t, n)))
		}
	})
	return out
}

// TestGoldenVTimes hard-gates the simulator on committed per-cell virtual
// times and output hashes: any host-side change (interpreter, scheduler,
// handoff mechanism) must leave every cell bit-for-bit unchanged.
func TestGoldenVTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid runs every workload cell")
	}
	got := goldenCells(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateGolden {
		var b strings.Builder
		b.WriteString("# key  result — regenerate with: go test ./internal/bench -run TestGoldenVTimes -update-golden\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s  %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = v
	}
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: cell missing from the golden file (got %s)", k, got[k])
		case w != got[k]:
			t.Errorf("%s: drifted\n  golden %s\n  got    %s", k, w, got[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden cell no longer produced", k)
		}
	}
}
