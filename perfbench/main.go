// Command perfbench is the repository benchmark: it drives the simulator's
// public packages (and the dcrmd daemon binary) through four workloads and
// prints one JSON result line per run.
//
//	perfbench --workload campaign|timing|resilience|serve --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics listed in
// BENCHMARK.json; a traced run (--trace 1) attaches telemetry, a CPU profile
// and host-time spans, and reports the per-layer metrics instead. Every run
// checks its outputs; failed checks make the result line report
// "correct": false. See perfbench/METRICS.md for what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench carries one run's configuration and everything it records.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // repository checkout root
	dcrmd    string // dcrmd binary (serve)
	outDir   string // per-run artifacts: digests, traces, profiles

	attempted, failed int
	failures          []string

	metrics map[string]float64
	na      map[string]string
	meta    map[string]any
	spans   *spanRecorder // nil when untraced
}

// check records one output check. A failed check marks the run incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		msg := fmt.Sprintf(format, args...)
		if len(b.failures) < 50 {
			b.failures = append(b.failures, msg)
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
}

// ops counts successful operations (fault runs, simulated configurations,
// jobs) toward attempted.
func (b *bench) ops(n int) { b.attempted += n }

// set records a metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// notApplicable records a metric that does not apply to this workload.
func (b *bench) notApplicable(name, reason string) {
	if _, ok := b.metrics[name]; ok {
		return
	}
	b.na[name] = reason
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"campaign":   runCampaign,
	"timing":     runTiming,
	"resilience": runResilience,
	"serve":      runServe,
}

func main() {
	workload := flag.String("workload", "", "workload: campaign, timing, resilience or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout root")
	dcrmd := flag.String("dcrmd", "", "dcrmd binary (serve workload)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		root: absRoot, dcrmd: *dcrmd,
		outDir:  filepath.Join(absRoot, ".bench_build", "results"),
		metrics: map[string]float64{}, na: map[string]string{}, meta: map[string]any{},
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fatal(err)
	}
	if b.traced {
		b.spans = newSpanRecorder()
	}
	b.recordHostMeta()
	if err := run(b); err != nil {
		fatal(err)
	}
	if b.traced {
		b.finishTrace()
	}
	b.emit()
}

// emit writes the metadata line and then the result line, which must be the
// last line of stdout.
func (b *bench) emit() {
	names := endToEnd
	if b.traced {
		names = perLayer
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = b.failed == 0
	for _, m := range names {
		v, ok := b.metrics[m.name]
		if !ok {
			if _, isNA := b.na[m.name]; !isNA {
				b.na[m.name] = defaultNA(m.name)
			}
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	b.meta["failures"] = b.failures
	if len(b.na) > 0 {
		b.meta["not_applicable"] = b.na
	}
	meta, err := json.Marshal(map[string]any{"meta": b.meta})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	kind := "untraced"
	if b.traced {
		kind = "traced"
	}
	out := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-%s.json", b.workload, b.seed, kind))
	if err := os.WriteFile(out, append(append(meta, '\n'), append(line, '\n')...), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(string(meta))
	fmt.Println(string(line))
}

// defaultNA explains a per-layer metric the workload left unset.
func defaultNA(name string) string {
	switch {
	case strings.HasPrefix(name, "dcrmd."), strings.HasPrefix(name, "store.disk"),
		name == "experiments.artifact_computed_frac":
		return "measured on the serve workload (dcrmd over a disk store)"
	}
	return "not produced by this workload"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	stopChildren()
	os.Exit(1)
}

// recordHostMeta records the host and model facts every result carries.
func (b *bench) recordHostMeta() {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	ns := secdedNsPerWord()
	b.set("ecc.secded_ns_per_word", ns)
	b.meta["workload"] = b.workload
	b.meta["seed"] = b.seed
	b.meta["host"] = map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu, "secded_ns_per_word": ns,
	}
	b.meta["model"] = map[string]any{
		"validated_against_hardware": false,
		"cache_start_state": "L1 invalidated at each kernel launch; L2 empty per application " +
			"and kept across that application's launches",
		"reference": "the paper's published figures are the only reference; the simulator " +
			"is a model and is not validated against GPU hardware",
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// peakRSSMB returns the VmHWM of a process (self when pid is 0) in MB.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(l, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
