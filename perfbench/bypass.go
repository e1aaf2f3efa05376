package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The bypass check confirms, from a CPU profile of the job stream, that a
// workload never executes code it is predicted to bypass: compile-vet jobs
// run nothing of the simulator (exec, des, interp), the profiler or the
// builtin substrate, and cells jobs build nothing of the front end or the
// analyzer, which run in set-up only. It reads what the program executed,
// so it also catches a layer that starts calling another internally.

// bypassRule is one workload's prediction: no profile sample may have a
// frame in a banned function, except in an allowed one. Both are
// function-name prefixes: a package path with a trailing dot names the
// whole package.
type bypassRule struct {
	banned, allowed []string
}

var bypassRules = map[string]bypassRule{
	"compile-vet": {
		banned: []string{"repro/internal/vm/exec.", "repro/internal/vm/des.", "repro/internal/vm/interp.",
			"repro/internal/profile.", "repro/internal/builtins."},
		// The commute check reads the builtins' static effect models; it
		// never runs a builtin.
		allowed: []string{"repro/internal/builtins.ModelOf"},
	},
	// A cells job may query what set-up built (the executor asks a loop
	// which blocks it contains, a service's commset model which locks a
	// member takes, the auto-tuner the profiler's tuning candidates), so
	// the rule bans the front-end and analyzer passes that build those
	// products, not their packages.
	"cells": {
		banned: []string{"repro/internal/lexer.", "repro/internal/parser.", "repro/internal/types.Check",
			"repro/internal/lower.", "repro/internal/callgraph.", "repro/internal/commset.BuildModel",
			"repro/internal/commset.(*Model).CheckWellFormed", "repro/internal/effects.Summarize",
			"repro/internal/cfg.New", "repro/internal/pdg.Build", "repro/internal/depend.Analyze",
			"repro/internal/pipeline.", "repro/internal/transform.Schedules", "repro/internal/transform.BuildUnitGraph",
			"repro/internal/analysis.", "repro/internal/symexec.", "repro/internal/profile.Run"},
	},
}

// bypassResult is the check's outcome for one traced run.
type bypassResult struct {
	Rule    string   `json:"rule"`
	Samples int64    `json:"samples"` // profile samples of the profiled pass
	Banned  int64    `json:"banned_samples"`
	Hits    []string `json:"banned_functions,omitempty"`
	// Packages lists the repro packages with the most samples, for the
	// report.
	Packages []string `json:"top_packages"`
	Held     bool     `json:"held"`
}

func (r *bypassResult) String() string {
	if r.Rule == "" {
		return "no prediction for this workload"
	}
	if r.Held {
		return fmt.Sprintf("held: none of %d CPU-profile samples of the jobs in %s", r.Samples, r.Rule)
	}
	if r.Samples == 0 {
		return "FAILED: the jobs left no CPU-profile samples to check"
	}
	return fmt.Sprintf("FAILED: %d of %d CPU-profile samples in %s: %s",
		r.Banned, r.Samples, r.Rule, strings.Join(r.Hits, ", "))
}

// checkBypass applies a workload's rule to the stacks of a CPU profile.
func checkBypass(workload string, stacks []profileSample) *bypassResult {
	rule, ok := bypassRules[workload]
	res := &bypassResult{Held: true}
	if ok {
		res.Rule = strings.Join(rule.banned, " ")
		if len(rule.allowed) > 0 {
			res.Rule += " (except " + strings.Join(rule.allowed, " ") + ")"
		}
	}
	hits := map[string]int64{}
	pkgs := map[string]int64{}
	for _, s := range stacks {
		res.Samples += s.count
		seen := map[string]bool{}
		var hit string
		for _, fn := range s.funcs {
			pkg := packageOf(fn)
			if strings.HasPrefix(pkg, "repro/") && !seen[pkg] {
				seen[pkg] = true
				pkgs[pkg] += s.count
			}
			if hit == "" && bannedIn(rule, fn) {
				hit = fn
			}
		}
		if hit != "" {
			res.Banned += s.count
			hits[hit] += s.count
		}
	}
	res.Hits = topKeys(hits, 5)
	res.Packages = topKeys(pkgs, 8)
	if ok {
		res.Held = res.Banned == 0 && res.Samples > 0
	}
	return res
}

func bannedIn(rule bypassRule, fn string) bool {
	for _, a := range rule.allowed {
		if strings.HasPrefix(fn, a) {
			return false
		}
	}
	for _, b := range rule.banned {
		if strings.HasPrefix(fn, b) {
			return true
		}
	}
	return false
}

// topKeys lists the n keys with the largest counts as "key=count".
func topKeys(m map[string]int64, n int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var out []string
	for _, k := range keys[:min(n, len(keys))] {
		out = append(out, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return out
}

// packageOf returns the import path of a Go function's symbol name, as in
// "repro/internal/vm/exec.(*machine).step" → "repro/internal/vm/exec".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other paths
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profileSample is one sample of a CPU profile: how many times the stack
// was seen and its function names, innermost first (inlined calls
// included).
type profileSample struct {
	count int64
	funcs []string
}

// parseProfile decodes the gzipped protocol-buffer profile runtime/pprof
// writes. Only the fields the check needs are read: samples (location ids
// and the sample count), locations (their lines' function ids), functions
// (their names) and the string table.
func parseProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]uint64{}
	var strs []string
	err = protoFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			first := true
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id
					ids, err := uint64s(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value: the first is the sample count
					vals, err := uint64s(v, b)
					if first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		ps := profileSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					ps.funcs = append(ps.funcs, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("malformed profile")

// protoFields walks a protocol-buffer message, calling fn with each
// field's number and either its varint value or its bytes.
func protoFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1: // 64-bit
			if len(data) < 8 {
				return errProto
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5: // 32-bit
			if len(data) < 4 {
				return errProto
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// uint64s reads a repeated integer field given one element (v) or a
// packed run (b).
func uint64s(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
