package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// pprofTop runs `go tool pprof -top` over the profiles (merged) with
// values in milliseconds, sorted by flat time or, with cum, by cumulative
// time, and keeping nodes rows (0 = every function).
func pprofTop(profiles []string, cum bool, nodes int) (string, error) {
	args := []string{"tool", "pprof", "-top", "-unit=ms", "-nodefraction=0", "-edgefraction=0",
		fmt.Sprintf("-nodecount=%d", nodes)}
	if cum {
		args = append(args, "-cum")
	}
	cmd := exec.Command("go", append(args, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return string(out), nil
}

// flatByFunction parses a `pprof -top -unit=ms` table into each function's
// self time in milliseconds. Inlined frames count toward the function
// they were written in.
func flatByFunction(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	rows := false
	for _, l := range strings.Split(top, "\n") {
		f := strings.Fields(l)
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", l, err)
		}
		flat[strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")] += ms
	}
	if !rows {
		return nil, fmt.Errorf("pprof printed no table:\n%s", top)
	}
	return flat, nil
}

// moduleOf maps a function name to its internal package, "runtime", or
// "other".
func moduleOf(fn string) string {
	if i := strings.Index(fn, "/internal/"); i >= 0 && strings.Contains(fn[:i], "datacentric-gpu/dcrm") {
		rest := fn[i+len("/internal/"):]
		if j := strings.IndexAny(rest, "./"); j >= 0 {
			rest = rest[:j]
		}
		for _, m := range cpuModules {
			if m == rest {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return "other"
}

// attributeCPU reports cpu.<module> leaf self-time shares of the CPU
// profiles and writes pprof's top-20 flat and cumulative tables to
// summaryPath.
func (b *bench) attributeCPU(profiles []string, summaryPath string) error {
	all, err := pprofTop(profiles, false, 0)
	if err != nil {
		return err
	}
	flat, err := flatByFunction(all)
	if err != nil {
		return err
	}
	mods := map[string]float64{}
	var total float64
	for fn, ms := range flat {
		mods[moduleOf(fn)] += ms
		total += ms
	}
	if total == 0 {
		return fmt.Errorf("cpu profile holds no samples")
	}
	for _, m := range append(append([]string(nil), cpuModules...), "runtime", "other") {
		b.set("cpu."+m, mods[m]/total)
	}

	summary := fmt.Sprintf("# %s seed %d: CPU profile\n\n## top 20 by flat\n\n", b.workload, b.seed)
	for _, cum := range []bool{false, true} {
		top, err := pprofTop(profiles, cum, 20)
		if err != nil {
			return err
		}
		if cum {
			summary += "\n## top 20 by cum\n\n"
		}
		summary += top
	}
	return os.WriteFile(summaryPath, []byte(summary), 0o644)
}
