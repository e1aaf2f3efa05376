package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/transform"
	"repro/internal/vm/exec"
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

// weightsHash fingerprints a profile's per-instruction weights in
// instruction-ID order.
func weightsHash(w map[int]int64) string {
	ids := make([]int, 0, len(w))
	for id := range w {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%d:%d\n", id, w[id])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// cellSyncs lists the sync modes the cells benchmark runs a variant's
// schedule under: every mode for the annotated DOALL, the headline
// mechanisms (Spin, plus Lib where the library is thread-safe) for the
// other transforms and variants, and Spin for the non-COMMSET baseline.
func cellSyncs(wl *workloads.Workload, variant string, kind transform.Kind) []exec.SyncMode {
	switch {
	case variant == "noannot":
		return []exec.SyncMode{exec.SyncSpin}
	case kind != transform.DOALL || variant != "comm":
		if wl.LibOK {
			return []exec.SyncMode{exec.SyncSpin, exec.SyncLib}
		}
		return []exec.SyncMode{exec.SyncSpin}
	}
	return wl.Syncs()
}

// goldenCells runs every golden cell and returns key → canonical result:
//   - grid: every workload × kind × sync × goldenThreads cell of the
//     primary variant, plus each compile's sequential baseline;
//   - variant: the same for the non-primary variants (det, pipe, ...)
//     and the pragma-stripped baseline, at the cells benchmark's syncs;
//   - auto: every variant's cells auto-tuned (the picked Tune and vtime);
//   - profile: each variant's profile total and per-instruction weights;
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
	withHostState(1, func() {
		for _, wl := range workloads.All() {
			for _, threads := range goldenThreads {
				cp, err := compileUncached(wl, "comm", threads)
				if err != nil {
					t.Fatalf("compile %s/t%d: %v", wl.Name, threads, err)
				}
				put(seqKey(wl.Name, threads), goldenResult(cp.SeqCost, cp.SeqWorld))
				for _, kind := range campaignKinds {
					if cp.Schedule(kind) == nil {
						continue
					}
					for _, mode := range wl.Syncs() {
						m, err := cp.runUncached(kind, mode, threads, false)
						if err != nil {
							t.Fatalf("run %s %v/%v/t%d: %v", wl.Name, kind, mode, threads, err)
						}
						put(gridKey(wl.Name, kind, mode, threads), goldenResult(m.VirtualTime, m.World))
					}
				}
			}
		}

		// The non-primary variants and the auto-tuned cells the cells
		// benchmark runs, plus each compile's profile weights.
		for _, wl := range workloads.All() {
			variants := []string{}
			for _, v := range wl.Variants {
				variants = append(variants, v.Name)
			}
			variants = append(variants, "noannot")
			for _, variant := range variants {
				for _, threads := range goldenThreads {
					cp, err := compileUncached(wl, variant, threads)
					if err != nil {
						t.Fatalf("compile %s/%s/t%d: %v", wl.Name, variant, threads, err)
					}
					if threads == goldenThreads[0] {
						put(fmt.Sprintf("profile/%s/%s", wl.Name, variant),
							fmt.Sprintf("total=%d weights=%s", cp.Prof.Total, weightsHash(cp.Prof.Weights)))
					}
					if variant != "comm" {
						put(fmt.Sprintf("variant/%s/%s/seq/t%d", wl.Name, variant, threads), goldenResult(cp.SeqCost, cp.SeqWorld))
					}
					for _, kind := range campaignKinds {
						if cp.Schedule(kind) == nil {
							continue
						}
						for _, mode := range cellSyncs(wl, variant, kind) {
							if variant != "comm" {
								m, err := cp.runUncached(kind, mode, threads, false)
								if err != nil {
									t.Fatalf("run %s/%s %v/%v/t%d: %v", wl.Name, variant, kind, mode, threads, err)
								}
								put(fmt.Sprintf("variant/%s/%s/%v/%v/t%d", wl.Name, variant, kind, mode, threads),
									goldenResult(m.VirtualTime, m.World))
							}
							m, err := cp.runUncached(kind, mode, threads, true)
							if err != nil {
								t.Fatalf("auto %s/%s %v/%v/t%d: %v", wl.Name, variant, kind, mode, threads, err)
							}
							put(fmt.Sprintf("auto/%s/%s/%v/%v/t%d", wl.Name, variant, kind, mode, threads),
								fmt.Sprintf("tune=%q vt=%d out=%s", m.Tune.String(), m.VirtualTime, worldHash(m.World)))
						}
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

	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
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
