package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// canonicalSeed is the seed whose result digests are recorded in
// expected.json.
const canonicalSeed = 1

//go:embed expected.json
var expectedJSON []byte

// inproc describes a workload that runs in this process against a fresh
// experiment suite per iteration, so every iteration computes its figure
// cold.
type inproc struct {
	scale experiments.Scale
	// apps are built (app, profile, golden) during setup.
	apps []string
	// work runs the figure (the timed call).
	work func(s *experiments.Suite) (out any, err error)
	// units counts the work units a result completed (for
	// throughput_per_s).
	units func(s *experiments.Suite, out any) (float64, error)
	// check verifies one result.
	check func(b *bench, s *experiments.Suite, out any)
	// traced adds the workload's per-layer metrics after the traced
	// iteration (reg holds the figure call's telemetry; wall is its time).
	traced func(b *bench, s *experiments.Suite, out any, reg *telemetry.Registry, wall float64) error
	// finish runs once per run after the iterations (extra output checks,
	// metadata).
	finish func(b *bench, s *experiments.Suite, out any) error
}

// setupTimes splits one suite setup into its stages.
type setupTimes struct{ total, newSuite, build, profile, golden float64 }

// setupSuite builds a suite and the workload apps' base instances,
// profiles and baseline goldens: the work every figure call assumes done.
func (b *bench) setupSuite(w inproc, reg *telemetry.Registry) (*experiments.Suite, setupTimes, error) {
	var st setupTimes
	root := b.spans.begin("setup", "run")
	defer root.end()
	t0 := time.Now()
	sp := b.spans.begin("setup.new_suite", "setup")
	s, err := experiments.NewSuite(experiments.SuiteConfig{Seed: b.seed, Scale: w.scale, Telemetry: reg})
	sp.end()
	if err != nil {
		return nil, st, err
	}
	st.newSuite = since(t0)
	stage := func(name, app string, acc *float64, fn func() error) error {
		sp := b.spans.begin(name+" "+app, "setup")
		t := time.Now()
		err := fn()
		*acc += since(t)
		sp.end()
		return err
	}
	for _, a := range w.apps {
		if err := stage("setup.app", a, &st.build, func() error { _, err := s.App(a); return err }); err != nil {
			return nil, st, err
		}
		if err := stage("setup.profile", a, &st.profile, func() error { _, err := s.Profile(a); return err }); err != nil {
			return nil, st, err
		}
		if err := stage("setup.golden", a, &st.golden, func() error { _, err := s.Golden(a); return err }); err != nil {
			return nil, st, err
		}
	}
	st.total = since(t0)
	return s, st, nil
}

// A run times preSetups setups before its figure iterations, one per
// iteration, and then more until it has minSetups, so setup_s is a median
// of samples from the start and the end of the run: the host's speed
// drifts over seconds, and one iteration can fill the measurement budget.
const (
	preSetups = 3
	minSetups = 10
)

// timeSetup times one setup on a collected heap and drops the suite.
func (b *bench) timeSetup(w inproc) (float64, error) {
	runtime.GC()
	_, st, err := b.setupSuite(w, nil)
	return st.total, err
}

// runInProcess drives an in-process workload: untraced runs time setups
// and figure iterations until the budget is spent; traced runs hand over
// to runInProcessTraced.
func (b *bench) runInProcess(w inproc) error {
	if b.traced {
		return b.runInProcessTraced(w)
	}
	var setups, walls []float64
	var units, work float64
	for i := 0; i < preSetups; i++ {
		st, err := b.timeSetup(w)
		if err != nil {
			return err
		}
		setups = append(setups, st)
	}
	var digest string
	var last *experiments.Suite
	var lastOut any
	var rss float64
	start := time.Now()
	for iter := 0; ; iter++ {
		runtime.GC()
		itStart := time.Now()
		s, st, err := b.setupSuite(w, nil)
		if err != nil {
			return err
		}
		setups = append(setups, st.total)
		t := time.Now()
		out, err := w.work(s)
		if err != nil {
			return err
		}
		wall := since(t)
		if iter == 0 {
			// Later iterations overlap the previous suite's garbage, so the
			// high-water mark is read once, after the first figure call.
			rss = peakRSSMB(0)
		}
		n, err := w.units(s, out)
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		units += n
		work += wall
		w.check(b, s, out)
		d := digestOf(out)
		if digest == "" {
			digest = d
		} else {
			b.check(d == digest, "iteration %d digest %s differs from iteration 0 digest %s", iter, d, digest)
		}
		last, lastOut = s, out
		if since(start)+since(itStart) > b.seconds {
			break
		}
	}

	// A repeated identical request is served from the suite's result store.
	again, err := w.work(last)
	if err != nil {
		return err
	}
	b.check(digestOf(again) == digest, "repeated request returned a different result")
	if w.finish != nil {
		if err := w.finish(b, last, lastOut); err != nil {
			return err
		}
	}
	b.checkDigest(digest)
	for len(setups) < minSetups {
		st, err := b.timeSetup(w)
		if err != nil {
			return err
		}
		setups = append(setups, st)
	}
	b.set("setup_s", median(setups))
	b.set("wall_s", median(walls))
	b.set("throughput_per_s", units/work)
	b.set("peak_rss_mb", rss)
	b.meta["iterations"] = len(walls)
	b.meta["setups"] = setups
	b.meta["walls"] = walls
	return nil
}

// untracedIteration runs one setup and figure call without observation
// and returns the call's wall time and result digest.
func (b *bench) untracedIteration(w inproc) (float64, string, error) {
	runtime.GC()
	s, _, err := b.setupSuite(w, nil)
	if err != nil {
		return 0, "", err
	}
	t := time.Now()
	out, err := w.work(s)
	if err != nil {
		return 0, "", err
	}
	wall := since(t)
	w.check(b, s, out)
	return wall, digestOf(out), nil
}

// runInProcessTraced runs a traced iteration (telemetry, CPU profile,
// spans) between two untraced ones, whose mean wall time is the overhead
// reference.
func (b *bench) runInProcessTraced(w inproc) error {
	refWall, refDigest, err := b.untracedIteration(w)
	if err != nil {
		return err
	}
	runtime.GC()

	reg := telemetry.NewRegistry()
	ts, st, err := b.setupSuite(w, reg)
	if err != nil {
		return err
	}
	if len(w.apps) > 0 {
		b.set("nn.train_s", st.newSuite)
		b.set("kernels.build_s", st.build)
		b.set("profile.collect_s", st.profile)
		b.set("simt.golden_run_ms", st.golden*1e3)
	}
	profPath := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-cpu.pprof", b.workload, b.seed))
	stop, err := cpuProfile(profPath)
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	sp := b.spans.begin("figure", "run")
	t := time.Now()
	out, err := w.work(ts)
	wall := since(t)
	sp.end()
	rt1 := readRuntime()
	stop()
	if err != nil {
		return err
	}
	b.recordRuntime(rt0, rt1)
	w.check(b, ts, out)
	b.check(digestOf(out) == refDigest, "traced iteration digest differs from untraced iteration")
	b.checkDigest(refDigest)
	b.poolMetrics(reg, wall)
	b.storeHits(counters(reg))

	if err := b.attributeCPU([]string{profPath},
		filepath.Join(b.outDir, b.workload+"-cpu-top20.txt")); err != nil {
		return err
	}
	if w.traced != nil {
		if err := w.traced(b, ts, out, reg, wall); err != nil {
			return err
		}
	}
	if w.finish != nil {
		if err := w.finish(b, ts, out); err != nil {
			return err
		}
	}
	ts, out = nil, nil
	refWall2, refDigest2, err := b.untracedIteration(w)
	if err != nil {
		return err
	}
	b.check(refDigest2 == refDigest, "second untraced iteration digest differs from the first")
	b.set("trace.overhead_frac", wall/((refWall+refWall2)/2)-1)
	return nil
}

// poolMetrics derives the fan-out's busy share and critical-path bound
// from the suite's task-duration histograms.
func (b *bench) poolMetrics(reg *telemetry.Registry, wall float64) {
	var busy, maxBound float64
	for _, smp := range reg.Snapshot() {
		if smp.Name != "dcrm_experiment_task_seconds" {
			continue
		}
		busy += smp.Value
		// The highest non-empty bucket bounds the longest task from above.
		for _, bk := range smp.Buckets {
			if bk.Count == smp.Count {
				maxBound = math.Max(maxBound, bk.UpperBound)
				break
			}
		}
	}
	b.set("experiments.pool_busy_frac", busy/(wall*float64(runtime.GOMAXPROCS(0))))
	if maxBound > 0 && !math.IsInf(maxBound, 1) {
		b.set("experiments.task_max_s", maxBound)
	}
}

// counters flattens a telemetry snapshot into family totals: counters and
// gauges by name (summed over label children), histograms as name_sum and
// name_count, the same names a Prometheus scrape yields.
func counters(reg *telemetry.Registry) map[string]float64 {
	m := map[string]float64{}
	for _, smp := range reg.Snapshot() {
		if smp.Kind == telemetry.KindHistogram {
			m[smp.Name+"_sum"] += smp.Value
			m[smp.Name+"_count"] += float64(smp.Count)
			continue
		}
		m[smp.Name] += smp.Value
	}
	return m
}

// campaignRatios reports the campaign layer's useful-work ratios and the
// batched path's shape from the suite's telemetry.
func (b *bench) campaignRatios(m map[string]float64) {
	total := m["dcrm_campaign_runs_total"]
	if total == 0 {
		return
	}
	b.set("fault.pruned_frac", m["dcrm_campaign_runs_pruned_total"]/total)
	b.set("fault.preclassified_frac", m["dcrm_campaign_runs_preclassified_total"]/total)
	b.set("fault.executed_frac", m["dcrm_campaign_fork_runs_total"]/total)
	if batchRuns := m["dcrm_campaign_batch_runs_total"]; batchRuns > 0 {
		b.set("experiments.batch_fallback_frac", m["dcrm_campaign_batch_fallback_runs_total"]/batchRuns)
		b.set("simt.replayed_warps_per_run", m["dcrm_campaign_replayed_warps_total"]/batchRuns)
	}
	if n := m["dcrm_campaign_batch_occupancy_count"]; n > 0 {
		b.set("experiments.batch_occupancy", m["dcrm_campaign_batch_occupancy_sum"]/n)
	}
	b.set("experiments.checkpoint_builds", m["dcrm_checkpoint_builds_total"])
}

// storeHits reports the result store's memory-tier hit share.
func (b *bench) storeHits(m map[string]float64) {
	if d := m["dcrm_store_mem_hits_total"] + m["dcrm_store_mem_misses_total"]; d > 0 {
		b.set("store.mem_hit_frac", m["dcrm_store_mem_hits_total"]/d)
	}
}

// digestOf hashes a result's JSON encoding.
func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// checkDigest compares the run's results digest with the one recorded for
// the canonical seed and with the first run of this seed in this checkout.
// Earlier runs' digests are kept per version of expected.json, so a change
// that updates the recorded outputs starts afresh instead of failing
// against runs of the code before it.
func (b *bench) checkDigest(d string) {
	b.meta["digest"] = d
	var expected map[string]string
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		fatal(fmt.Errorf("expected.json: %w", err))
	}
	if b.seed == canonicalSeed {
		want, ok := expected[b.workload]
		b.check(ok && want == d, "%s digest %s differs from the canonical-seed digest %s", b.workload, d, want)
	}
	version := sha256.Sum256(expectedJSON)
	dir := filepath.Join(b.outDir, "..", "digests", hex.EncodeToString(version[:8]))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if prev, err := os.ReadFile(path); err == nil {
		b.check(strings.TrimSpace(string(prev)) == d, "%s seed %d digest %s differs from an earlier run's %s",
			b.workload, b.seed, d, strings.TrimSpace(string(prev)))
		return
	}
	if err := os.WriteFile(path, []byte(d+"\n"), 0o644); err != nil {
		fatal(err)
	}
}

// evaluatedApps lists the eight Table II applications.
func evaluatedApps() []string {
	var out []string
	for _, bl := range kernels.Evaluated() {
		out = append(out, bl.Name)
	}
	return out
}

// checkCounts verifies one campaign cell: outcome counts are non-negative
// and sum to its run count.
func (b *bench) checkCounts(label string, r fault.Result, runs int) {
	counts := []int{r.MaskedRuns, r.SDCRuns, r.DetectedRuns, r.CrashedRuns, r.DUERuns}
	sum := 0
	ok := r.Runs == runs
	for _, c := range counts {
		ok = ok && c >= 0
		sum += c
	}
	b.check(ok && sum == r.Runs, "%s: counts %v sum to %d, runs %d (want %d)", label, counts, sum, r.Runs, runs)
}

// hotLevel is the protection level that covers exactly the hot objects
// (at least one object).
func hotLevel(app *kernels.App) int {
	if app.HotCount > 0 {
		return app.HotCount
	}
	return 1
}

// levelsFor returns how many protection levels the Fig. 7/9 sweeps visit
// for an app beyond the baseline.
func levelsFor(app *kernels.App) int {
	n := len(app.Objects)
	if n > core.MaxObjectsCorrection {
		n = core.MaxObjectsCorrection
	}
	return n
}
