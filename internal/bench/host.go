package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/workloads"
)

// HostOptions configures HostReport.
type HostOptions struct {
	Threads  int
	Seed     uint64
	Smoke    bool
	JSONPath string
	// GoldenPath, when set, names the committed golden vtime file
	// (testdata/golden_vtimes.txt): every bundle cell it has a line for
	// must reproduce that line's virtual time and output hash.
	GoldenPath string
}

// HostWorkloadTiming is one workload's simulation bundle: compile with its
// profiling and sequential runs, then one parallel run per applicable
// transform at the primary sync mode.
type HostWorkloadTiming struct {
	Workload string `json:"workload"`
	// SimCost estimates the virtual cost units the bundle simulates:
	// the sequential cost times the number of whole-program executions
	// (profiling run + sequential baseline + one run per transform).
	SimCost int64   `json:"sim_cost"`
	Ms      float64 `json:"ms"`
	// NsPerCost is host nanoseconds per simulated cost unit — the
	// simulator's hardware speed.
	NsPerCost float64 `json:"ns_per_cost"`
	// GoldenCells counts the bundle's cells checked against the golden
	// file (cells at thread counts it does not cover go unchecked).
	GoldenCells int `json:"golden_cells"`
}

// HostCampaignTiming is one campaign's wall-clock.
type HostCampaignTiming struct {
	Campaign string  `json:"campaign"`
	Ms       float64 `json:"ms"`
}

// HostPerfReport is the machine-readable host-performance report behind
// BENCH_host.json: per-workload simulator speed and per-campaign
// wall-clock, measured in one pass from cold caches.
type HostPerfReport struct {
	Threads     int    `json:"threads"`
	Seed        uint64 `json:"seed"`
	Smoke       bool   `json:"smoke"`
	HostWorkers int    `json:"host_workers"`
	GoMaxProcs  int    `json:"gomaxprocs"`

	Workloads []HostWorkloadTiming `json:"workloads"`
	Campaigns []HostCampaignTiming `json:"campaigns"`

	// NsPerCost aggregates the workload bundles: total host nanoseconds
	// over total simulated cost units.
	NsPerCost float64 `json:"ns_per_cost"`
	SuiteMs   float64 `json:"suite_ms"`

	// GoldenCells counts the bundle cells checked against the golden
	// file; the report fails on any that drifted.
	GoldenCells int `json:"golden_cells"`
}

// hostBundle runs one workload's measurement bundle, bypassing the
// bench-level memos so the simulation itself is what gets timed. It
// returns the wall-clock, the bundle's simulated-cost estimate, and every
// run's golden-file result line by golden key.
func hostBundle(wl *workloads.Workload, threads int) (time.Duration, int64, map[string]string, error) {
	start := time.Now()
	cp, err := compileUncached(wl, "comm", threads)
	if err != nil {
		return 0, 0, nil, err
	}
	cells := map[string]string{
		seqKey(wl.Name, threads): goldenResult(cp.SeqCost, cp.SeqWorld),
	}
	runs := int64(2) // the profiling run and the sequential baseline
	mode := wl.Syncs()[0]
	for _, kind := range campaignKinds {
		if cp.Schedule(kind) == nil {
			continue
		}
		m, err := cp.runUncached(kind, mode, threads, false)
		if err != nil {
			return 0, 0, nil, err
		}
		cells[gridKey(wl.Name, kind, mode, threads)] = goldenResult(m.VirtualTime, m.World)
		runs++
	}
	return time.Since(start), cp.SeqCost * runs, cells, nil
}

// hostCampaigns is the campaign suite the host benchmark times, in fixed
// order. Output goes to io.Discard and no JSON artifacts are written: only
// the wall-clock is of interest here.
func hostCampaigns(opts HostOptions) []struct {
	name string
	run  func(io.Writer) error
} {
	return []struct {
		name string
		run  func(io.Writer) error
	}{
		{"schedule", func(w io.Writer) error {
			_, err := PrintFigure6(w, opts.Threads, false)
			return err
		}},
		{"faults", func(w io.Writer) error {
			_, err := FaultCampaign(w, CampaignOptions{Threads: opts.Threads, Seed: opts.Seed, Smoke: opts.Smoke})
			return err
		}},
		{"service", func(w io.Writer) error {
			_, err := ServiceCampaign(w, ServiceOptions{Threads: opts.Threads, Seed: opts.Seed, Smoke: opts.Smoke})
			return err
		}},
		{"sanitize", func(w io.Writer) error {
			_, err := SanitizeCampaign(w, SanitizeOptions{Threads: opts.Threads, Smoke: opts.Smoke})
			return err
		}},
	}
}

// HostReport measures host wall-clock performance in one pass from cold
// caches: every workload's simulation bundle, then the campaign suite on
// the configured -hostpar pool. With opts.GoldenPath set, the bundles'
// virtual times and output hashes must match the committed golden file.
func HostReport(out io.Writer, opts HostOptions) (*HostPerfReport, error) {
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	var golden map[string]string
	if opts.GoldenPath != "" {
		var err error
		if golden, err = readGolden(opts.GoldenPath); err != nil {
			return nil, err
		}
	}

	rep := &HostPerfReport{
		Threads: opts.Threads, Seed: opts.Seed, Smoke: opts.Smoke,
		HostWorkers: HostWorkers, GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}

	fmt.Fprintf(out, "Host performance (GOMAXPROCS=%d, hostpar %d)\n", rep.GoMaxProcs, rep.HostWorkers)
	resetCaches()
	var drift []string
	var totNs, totCost float64
	fmt.Fprintf(out, "  %-10s %10s %7s %8s  %s\n", "workload", "ms", "Mcost", "ns/cu", "golden cells")
	for _, wl := range workloads.All() {
		d, cost, cells, err := hostBundle(wl, opts.Threads)
		if err != nil {
			return nil, fmt.Errorf("bench: host bundle %s: %w", wl.Name, err)
		}
		t := HostWorkloadTiming{Workload: wl.Name, SimCost: cost, Ms: ms(d)}
		t.NsPerCost = ratio(float64(d.Nanoseconds()), float64(cost))
		keys := make([]string, 0, len(cells))
		for k := range cells {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			want, ok := golden[k]
			if !ok {
				continue
			}
			t.GoldenCells++
			if want != cells[k] {
				drift = append(drift, fmt.Sprintf("%s: golden %s, got %s", k, want, cells[k]))
			}
		}
		rep.GoldenCells += t.GoldenCells
		totNs += float64(d.Nanoseconds())
		totCost += float64(cost)
		rep.Workloads = append(rep.Workloads, t)
		fmt.Fprintf(out, "  %-10s %10.1f %7.1f %8.2f  %d\n", t.Workload, t.Ms, float64(cost)/1e6, t.NsPerCost, t.GoldenCells)
	}
	rep.NsPerCost = ratio(totNs, totCost)

	fmt.Fprintf(out, "  %-10s %10s\n", "campaign", "ms")
	for _, c := range hostCampaigns(opts) {
		// Collect before starting the clock so GC debt left by the
		// previous campaign is not charged to this one.
		runtime.GC()
		start := time.Now()
		if err := c.run(io.Discard); err != nil {
			return nil, fmt.Errorf("bench: host campaign %s: %w", c.name, err)
		}
		t := HostCampaignTiming{Campaign: c.name, Ms: ms(time.Since(start))}
		rep.SuiteMs += t.Ms
		rep.Campaigns = append(rep.Campaigns, t)
		fmt.Fprintf(out, "  %-10s %10.1f\n", t.Campaign, t.Ms)
	}
	fmt.Fprintf(out, "  suite: %.1fms; simulator %.2f ns/cost-unit; golden vtimes: %d cells checked, %d drifted\n",
		rep.SuiteMs, rep.NsPerCost, rep.GoldenCells, len(drift))

	if len(drift) > 0 {
		return rep, fmt.Errorf("bench: virtual time drifted from %s:\n  %s", opts.GoldenPath, strings.Join(drift, "\n  "))
	}
	if opts.JSONPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(opts.JSONPath, append(data, '\n'), 0o644); err != nil {
			return rep, err
		}
		fmt.Fprintf(out, "wrote %s\n", opts.JSONPath)
	}
	return rep, nil
}
