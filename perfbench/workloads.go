package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// Workload sizes. They are fixed, so a result is comparable across seeds
// and commits; the seed changes only the inputs.
const (
	// campaignRuns is the Fig. 6 fault-injection count per cell.
	campaignRuns = 40
	// resilienceRuns is the Fig. 9 fault-injection count per cell.
	resilienceRuns = 2
)

// timingApps are the Fig. 7 applications the timing workload sweeps at
// medium scale: P-GESUMMV's two 1 MB matrices exceed the modelled
// 6×256 KB L2, and P-BICG's 1 MB matrix nearly fills it.
var timingApps = []string{"P-GESUMMV", "P-BICG"}

// Paper values behind the gap metrics.
const (
	paperDetHotOverheadPct = 1.2
	paperCorHotOverheadPct = 3.4
	paperSDCDropPct        = 98.97
)

// probeModel is the fault model the per-stage probe samples.
var probeModel = fault.StuckAt{BitsPerWord: 2, Blocks: 1}

func runCampaign(b *bench) error {
	apps := evaluatedApps()
	b.meta["scale"] = fmt.Sprintf("small; Fig. 6 over %d apps x {hot, rest} x %d stuck-at models, %d runs per cell, unprotected",
		len(apps), len(experiments.DefaultFaultModels()), campaignRuns)
	cfg := experiments.Fig6Config{Runs: campaignRuns, Seed: b.seed}
	return b.runInProcess(inproc{
		scale: experiments.ScaleSmall,
		apps:  apps,
		work: func(s *experiments.Suite) (any, error) {
			return experiments.Fig6HotVsRest(s, cfg)
		},
		units: func(_ *experiments.Suite, out any) (float64, error) {
			runs := 0
			for _, c := range out.([]experiments.Fig6Cell) {
				runs += c.Result.Runs
			}
			return float64(runs), nil
		},
		check: func(b *bench, _ *experiments.Suite, out any) {
			cells := out.([]experiments.Fig6Cell)
			b.check(len(cells) == len(apps)*2*len(experiments.DefaultFaultModels()),
				"fig6 returned %d cells", len(cells))
			for _, c := range cells {
				b.checkCounts(fmt.Sprintf("fig6 %s/%s/%s", c.App, c.Space, c.Model.Label), c.Result, campaignRuns)
				b.ops(c.Result.Runs)
			}
		},
		traced: func(b *bench, s *experiments.Suite, _ any, reg *telemetry.Registry, _ float64) error {
			b.campaignRatios(counters(reg))
			notTiming(b, "campaign")
			return b.probeCampaign(s, apps)
		},
	})
}

func runResilience(b *bench) error {
	apps := evaluatedApps()
	b.meta["scale"] = fmt.Sprintf("small; Fig. 9 over %d apps, baseline plus detection and correction at every level, "+
		"%d stuck-at models, %d runs per cell, miss-weighted injection", len(apps), len(experiments.DefaultFaultModels()), resilienceRuns)
	cfg := experiments.Fig9Config{Runs: resilienceRuns, Seed: b.seed}
	return b.runInProcess(inproc{
		scale: experiments.ScaleSmall,
		apps:  apps,
		work: func(s *experiments.Suite) (any, error) {
			return experiments.Fig9Resilience(s, cfg)
		},
		units: func(_ *experiments.Suite, out any) (float64, error) {
			runs := 0
			for _, c := range out.([]experiments.Fig9Cell) {
				runs += c.Result.Runs
			}
			return float64(runs), nil
		},
		check: func(b *bench, s *experiments.Suite, out any) {
			cells := out.([]experiments.Fig9Cell)
			want := 0
			for _, name := range apps {
				app, err := s.App(name)
				if err != nil {
					b.check(false, "app %s: %v", name, err)
					continue
				}
				want += 1 + 2*levelsFor(app)
			}
			want *= len(experiments.DefaultFaultModels())
			b.check(len(cells) == want, "fig9 returned %d cells, want %d", len(cells), want)
			for _, c := range cells {
				b.checkCounts(fmt.Sprintf("fig9 %s/%v/L%d/%s", c.App, c.Scheme, c.Level, c.Model.Label), c.Result, resilienceRuns)
				b.ops(c.Result.Runs)
			}
		},
		traced: func(b *bench, s *experiments.Suite, _ any, reg *telemetry.Registry, _ float64) error {
			b.campaignRatios(counters(reg))
			notTiming(b, "resilience")
			return b.probeResilience(s, apps)
		},
		finish: func(b *bench, s *experiments.Suite, out any) error {
			hot, _, err := experiments.LevelMaps(s, apps)
			if err != nil {
				return err
			}
			drop := experiments.SDCDropPercent(out.([]experiments.Fig9Cell), hot)
			b.meta["fig9_sdc_drop_pct"] = drop
			b.meta["paper_sdc_drop_pct"] = paperSDCDropPct
			if b.traced {
				b.set("experiments.fig9_sdc_drop_gap_pp", math.Abs(drop-paperSDCDropPct))
			}
			return nil
		},
	})
}

func runTiming(b *bench) error {
	b.meta["scale"] = fmt.Sprintf("medium; Fig. 7 over %v, baseline plus detection and correction at every level, no faults",
		timingApps)
	cfg := experiments.Fig7Config{Apps: timingApps}
	return b.runInProcess(inproc{
		scale: experiments.ScaleMedium,
		apps:  timingApps,
		work: func(s *experiments.Suite) (any, error) {
			return experiments.Fig7Overhead(s, cfg)
		},
		units: func(s *experiments.Suite, out any) (float64, error) {
			return sweepWarpInstructions(s, out.([]experiments.Fig7Point))
		},
		check: func(b *bench, s *experiments.Suite, out any) {
			pts := out.([]experiments.Fig7Point)
			want := 0
			for _, name := range timingApps {
				app, err := s.App(name)
				if err != nil {
					b.check(false, "app %s: %v", name, err)
					continue
				}
				want += 1 + 2*levelsFor(app)
			}
			b.check(len(pts) == want, "fig7 returned %d points, want %d", len(pts), want)
			for _, p := range pts {
				ok := p.Cycles > 0 && p.NormTime > 0 && (p.Scheme != core.None || p.NormTime == 1)
				b.check(ok, "fig7 %s/%v/L%d: cycles %d norm %.4f", p.App, p.Scheme, p.Level, p.Cycles, p.NormTime)
			}
			b.ops(len(pts))
		},
		traced: func(b *bench, s *experiments.Suite, out any, reg *telemetry.Registry, wall float64) error {
			b.timingCounts(s, out.([]experiments.Fig7Point), reg)
			notCampaign(b)
			return b.probeReplays(s)
		},
		finish: func(b *bench, s *experiments.Suite, out any) error {
			hot, all, err := experiments.LevelMaps(s, timingApps)
			if err != nil {
				return err
			}
			sum := experiments.SummarizeFig7(out.([]experiments.Fig7Point), hot, all)
			det, cor := 100*sum.DetectionHotOverhead, 100*sum.CorrectionHotOverhead
			b.meta["fig7_hot_overhead_pct"] = map[string]float64{"detection": det, "correction": cor}
			b.meta["paper_hot_overhead_pct"] = map[string]float64{"detection": paperDetHotOverheadPct, "correction": paperCorHotOverheadPct}
			if b.traced {
				b.set("experiments.fig7_det_gap_pp", math.Abs(det-paperDetHotOverheadPct))
				b.set("experiments.fig7_cor_gap_pp", math.Abs(cor-paperCorHotOverheadPct))
			}
			return b.checkGoldenStats()
		},
	})
}

// sweepWarpInstructions counts the warp instructions the Fig. 7 sweep
// replayed: each point replays its app's captured traces once.
func sweepWarpInstructions(s *experiments.Suite, pts []experiments.Fig7Point) (float64, error) {
	per := map[string]float64{}
	var total float64
	for _, p := range pts {
		n, ok := per[p.App]
		if !ok {
			traces, err := s.Traces(p.App)
			if err != nil {
				return 0, err
			}
			for _, kt := range traces {
				for _, w := range kt.Warps {
					n += float64(len(w))
				}
			}
			per[p.App] = n
		}
		total += n
	}
	return total, nil
}

// timingCounts reports the simulated counts of the traced Fig. 7 sweep from
// the timing engine's telemetry, and cross-checks the warp-instruction
// count throughput_per_s is built on.
func (b *bench) timingCounts(s *experiments.Suite, pts []experiments.Fig7Point, reg *telemetry.Registry) {
	m := counters(reg)
	winstr := m["dcrm_sm_instructions_total"]
	b.set("timing.sim_cycles", m["dcrm_timing_cycles_total"])
	b.set("timing.sim_winstr", winstr)
	b.set("timing.copy_transactions", m["dcrm_copy_transactions_total"])
	b.set("timing.compare_stalls", m["dcrm_compare_stalls_total"])
	b.set("timing.mshr_stalls", m["dcrm_mshr_stalls_total"])
	b.set("experiments.checkpoint_builds", m["dcrm_checkpoint_builds_total"])
	ratio := func(num, den string) float64 {
		if d := m[den]; d > 0 {
			return m[num] / d
		}
		return 0
	}
	b.set("cache.l1_miss_rate", ratio("dcrm_l1_read_misses_total", "dcrm_l1_reads_total"))
	b.set("cache.l2_miss_rate", ratio("dcrm_l2_read_misses_total", "dcrm_l2_reads_total"))
	b.set("dram.row_hit_rate", ratio("dcrm_dram_row_hits_total", "dcrm_dram_requests_total"))
	b.set("dram.avg_latency_cycles", ratio("dcrm_dram_latency_cycles_total", "dcrm_dram_requests_total"))
	b.set("noc.requests", m["dcrm_noc_requests_total"])
	counted, err := sweepWarpInstructions(s, pts)
	b.check(err == nil && counted == winstr,
		"trace warp instructions %.0f differ from the engine's issued count %.0f (%v)", counted, winstr, err)
}

// probeReplays times one timing replay per scheme for each timing app at
// its hot protection level (experiments.Simulate, a store miss on a fresh
// key).
func (b *bench) probeReplays(s *experiments.Suite) error {
	per := map[core.Scheme]float64{}
	for _, name := range timingApps {
		app, err := s.App(name)
		if err != nil {
			return err
		}
		for _, scheme := range []core.Scheme{core.None, core.Detection, core.Correction} {
			level := 0
			if scheme != core.None {
				level = hotLevel(app)
			}
			sp := b.spans.begin(fmt.Sprintf("probe.simulate %s %v L%d", name, scheme, level), "probe")
			t := time.Now()
			st, err := experiments.Simulate(s, experiments.SimConfig{App: name, Scheme: scheme, Level: level})
			per[scheme] += since(t)
			sp.end()
			if err != nil {
				return err
			}
			b.check(st.TotalCycles() > 0, "simulate %s %v: no cycles", name, scheme)
		}
	}
	b.set("timing.replay_s.baseline", per[core.None])
	b.set("timing.replay_s.detection", per[core.Detection])
	b.set("timing.replay_s.correction", per[core.Correction])
	return nil
}

// goldenRun mirrors one entry of internal/experiments/testdata/golden_stats.json.
type goldenRun struct {
	App     string
	Scheme  string
	Level   int
	Kernels []timing.KernelStats
}

// checkGoldenStats replays, at the small scale the committed golden file
// was recorded at, every timing-workload app under the golden file's
// schemes and levels, and requires bit-identical KernelStats. The file is
// only read.
func (b *bench) checkGoldenStats() error {
	data, err := os.ReadFile(filepath.Join(b.root, "internal", "experiments", "testdata", "golden_stats.json"))
	if err != nil {
		return err
	}
	var golden []goldenRun
	if err := json.Unmarshal(data, &golden); err != nil {
		return err
	}
	s, err := experiments.NewSuite(experiments.SuiteConfig{NNTrainSamples: 60})
	if err != nil {
		return err
	}
	matched := 0
	for _, g := range golden {
		if !contains(timingApps, g.App) {
			continue
		}
		scheme, err := core.ParseScheme(g.Scheme)
		if err != nil {
			return err
		}
		traces, err := s.Traces(g.App)
		if err != nil {
			return err
		}
		var plan timing.ProtectionPlan
		if scheme != core.None && g.Level > 0 {
			_, p, err := s.PlanFor(g.App, scheme, g.Level)
			if err != nil {
				return err
			}
			if p != nil {
				plan = p
			}
		}
		eng, err := timing.New(arch.Default(), plan)
		if err != nil {
			return err
		}
		eng.Shards = s.SimShards()
		st, err := eng.RunApp(g.App, traces)
		if err != nil {
			return err
		}
		b.check(reflect.DeepEqual(st.Kernels, g.Kernels), "%s/%s/L%d KernelStats differ from golden_stats.json",
			g.App, g.Scheme, g.Level)
		matched++
	}
	b.check(matched == 3*len(timingApps), "golden_stats.json matched %d configurations, want %d", matched, 3*len(timingApps))
	b.meta["golden_stats_configs_checked"] = matched
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// notTiming marks the simulated-count metrics a fault workload does not
// produce.
func notTiming(b *bench, workload string) {
	for _, m := range []string{"timing.replay_s.baseline", "timing.replay_s.detection", "timing.replay_s.correction",
		"timing.sim_cycles", "timing.sim_winstr", "timing.copy_transactions", "timing.compare_stalls",
		"timing.mshr_stalls", "cache.l1_miss_rate", "cache.l2_miss_rate", "dram.row_hit_rate",
		"dram.avg_latency_cycles", "noc.requests", "experiments.fig7_det_gap_pp", "experiments.fig7_cor_gap_pp"} {
		b.notApplicable(m, workload+" runs no Fig. 7 timing sweep")
	}
}

// notCampaign marks the fault-campaign metrics the timing workload does
// not produce.
func notCampaign(b *bench) {
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "mem.") || strings.HasPrefix(m.name, "fault.") {
			b.notApplicable(m.name, "timing injects no faults")
		}
	}
	for _, m := range []string{"simt.run_ms", "experiments.batch_us_per_run", "experiments.batch_occupancy",
		"experiments.batch_fallback_frac", "simt.replayed_warps_per_run", "probe.parity_runs",
		"core.protected_run_ms", "core.protected_run_ms.detection", "core.protected_run_ms.correction",
		"core.protect_overhead_x", "experiments.artifact_build_s.golden", "experiments.artifact_build_s.capture",
		"experiments.artifact_build_s.missweights", "timing.missweights_s", "experiments.fig9_sdc_drop_gap_pp"} {
		b.notApplicable(m, "timing runs no fault campaign")
	}
}
