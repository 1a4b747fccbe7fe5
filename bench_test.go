package dcrm

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the paper-vs-measured record):
//
//	go test -bench=. -benchmem
//
// Campaign benchmarks default to benchRuns fault injections per
// configuration so the whole harness completes in minutes on one core; the
// cmd/repro tool exposes a -runs flag for the paper's full 1000-run
// campaigns. Reported custom metrics carry the headline numbers (SDC drop,
// overhead percentages) so a bench run doubles as a reproduction record.

import (
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// benchRuns is the per-configuration fault-injection count used by the
// benchmark harness (the paper uses 1000; see cmd/repro -runs).
const benchRuns = 60

// The default suite fans experiment work units — configurations and
// campaign batch claims alike — out over GOMAXPROCS goroutines
// (SuiteConfig.Workers = 0), its only level of host parallelism; the
// *Serial benchmark variants pin Workers to 1, which makes the whole suite
// single-goroutine, so a -bench run records the pool's speedup. Both paths produce identical
// results by construction (per-run seeds are derived from run indices,
// never from scheduling).
var (
	benchSuiteOnce sync.Once
	benchSuiteVal  *experiments.Suite
	benchSuiteErr  error

	benchSerialSuiteOnce sync.Once
	benchSerialSuiteVal  *experiments.Suite
	benchSerialSuiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		benchSuiteVal, benchSuiteErr = experiments.NewSuite(experiments.SuiteConfig{})
	})
	if benchSuiteErr != nil {
		b.Fatalf("suite: %v", benchSuiteErr)
	}
	return benchSuiteVal
}

func benchSerialSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSerialSuiteOnce.Do(func() {
		benchSerialSuiteVal, benchSerialSuiteErr = experiments.NewSuite(experiments.SuiteConfig{Workers: 1})
	})
	if benchSerialSuiteErr != nil {
		b.Fatalf("suite: %v", benchSerialSuiteErr)
	}
	return benchSerialSuiteVal
}

// BenchmarkFig2L2Trend regenerates the motivation figure's dataset.
func BenchmarkFig2L2Trend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig2L2Trend()
		if len(rows) < 10 {
			b.Fatal("missing Fig. 2 rows")
		}
	}
}

// BenchmarkFig3AccessProfiles regenerates the per-block access profiles of
// all ten applications (Fig. 3).
func BenchmarkFig3AccessProfiles(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig3AccessProfiles(s, 100)
		if err != nil {
			b.Fatal(err)
		}
		hot := 0
		for _, r := range results {
			if r.HotPattern {
				hot++
			}
		}
		b.ReportMetric(float64(hot), "hot-knee-apps")
	}
}

// BenchmarkFig4WarpSharing regenerates the warp-sharing series (Fig. 4).
func BenchmarkFig4WarpSharing(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig4WarpSharing(s, 100)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 4 {
			b.Fatal("wrong app count")
		}
	}
}

// BenchmarkTable3DataObjects regenerates the data-object inventory
// (Table III).
func BenchmarkTable3DataObjects(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3DataObjects(s)
		if err != nil {
			b.Fatal(err)
		}
		var avgHotAccess float64
		for _, r := range rows {
			avgHotAccess += r.HotAccessPercent
		}
		b.ReportMetric(avgHotAccess/float64(len(rows)), "avg-hot-access-%")
	}
}

// BenchmarkFig6HotVsRest regenerates the hot-vs-rest vulnerability study
// (Fig. 6) at benchRuns injections per configuration.
func BenchmarkFig6HotVsRest(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig6HotVsRest(s, experiments.Fig6Config{Runs: benchRuns})
		if err != nil {
			b.Fatal(err)
		}
		var hotSDC, restSDC int
		for _, c := range cells {
			if c.Space == "hot" {
				hotSDC += c.Result.SDCRuns
			} else {
				restSDC += c.Result.SDCRuns
			}
		}
		b.ReportMetric(float64(hotSDC), "hot-sdc-total")
		b.ReportMetric(float64(restSDC), "rest-sdc-total")
	}
}

// BenchmarkFig7Overhead regenerates the performance-overhead sweep (Fig. 7)
// on the timing simulator.
func BenchmarkFig7Overhead(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7Overhead(s, experiments.Fig7Config{})
		if err != nil {
			b.Fatal(err)
		}
		hot, all, err := experiments.LevelMaps(s, s.EvaluatedNames())
		if err != nil {
			b.Fatal(err)
		}
		sum := experiments.SummarizeFig7(points, hot, all)
		b.ReportMetric(100*sum.DetectionHotOverhead, "det-hot-%")
		b.ReportMetric(100*sum.CorrectionHotOverhead, "corr-hot-%")
		b.ReportMetric(100*sum.DetectionAllOverhead, "det-all-%")
		b.ReportMetric(100*sum.CorrectionAllOverhead, "corr-all-%")
	}
}

// BenchmarkFig9Resilience regenerates the SDC-vs-protection study (Fig. 9)
// at benchRuns injections per configuration.
func BenchmarkFig9Resilience(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig9Resilience(s, experiments.Fig9Config{Runs: benchRuns})
		if err != nil {
			b.Fatal(err)
		}
		hot := make(map[string]int)
		for _, name := range s.EvaluatedNames() {
			app, err := s.App(name)
			if err != nil {
				b.Fatal(err)
			}
			hot[name] = app.HotCount
		}
		b.ReportMetric(experiments.SDCDropPercent(cells, hot), "sdc-drop-%")
	}
}

// BenchmarkFig6HotVsRestSerial is BenchmarkFig6HotVsRest with the
// suite-level fan-out pinned to one worker — the pre-parallelization
// orchestration path, kept as the speedup baseline.
func BenchmarkFig6HotVsRestSerial(b *testing.B) {
	s := benchSerialSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6HotVsRest(s, experiments.Fig6Config{Runs: benchRuns}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7OverheadSerial is BenchmarkFig7Overhead with one worker.
func BenchmarkFig7OverheadSerial(b *testing.B) {
	s := benchSerialSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Overhead(s, experiments.Fig7Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9ResilienceSerial is BenchmarkFig9Resilience with one worker.
func BenchmarkFig9ResilienceSerial(b *testing.B) {
	s := benchSerialSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Resilience(s, experiments.Fig9Config{Runs: benchRuns}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteMemoContention measures the memoized Profile path under
// 8-way concurrent access (the fan-out's hottest shared structure).
func BenchmarkSuiteMemoContention(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Profile("P-BICG"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Profile("P-BICG"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLazyCompare measures lazy versus eager copy comparison
// for detection (Section IV-B1's latency-tolerance design point).
func BenchmarkAblationLazyCompare(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationLazyCompare(s, "P-BICG")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio(), "eager/lazy")
	}
}

// BenchmarkAblationScheduler measures GTO versus LRR warp scheduling under
// correction.
func BenchmarkAblationScheduler(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationScheduler(s, "P-BICG")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio(), "lrr/gto")
	}
}

// BenchmarkAblationPlacement measures distinct-channel versus same-channel
// replica placement.
func BenchmarkAblationPlacement(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPlacement(s, "P-BICG")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio(), "same/distinct-channel")
	}
}

// BenchmarkAblationCompareBuffer sweeps the pending-compare buffer size.
func BenchmarkAblationCompareBuffer(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		cycles, err := experiments.AblationCompareBuffer(s, "P-BICG", []int{1, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cycles[1])/float64(cycles[32]), "1-entry/32-entry")
	}
}

// BenchmarkTimingSimulator measures raw timing-simulator throughput on the
// P-BICG baseline (cycles simulated per wall-second).
func BenchmarkTimingSimulator(b *testing.B) {
	s := benchSuite(b)
	app, err := s.App("P-BICG")
	if err != nil {
		b.Fatal(err)
	}
	traces, err := app.TraceRun(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := timing.New(arch.Default(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunApp("P-BICG", traces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalRun measures one functional (fault-injection-mode)
// execution of P-BICG.
func BenchmarkFunctionalRun(b *testing.B) {
	s := benchSuite(b)
	app, err := s.App("P-BICG")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.RunOn(app.Mem.Clone(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSingleConfig measures one 100-run detection campaign on
// P-BICG under the paper's densest fault model, on the fork + checkpoint
// fast path the experiments and the public API use.
func BenchmarkCampaignSingleConfig(b *testing.B) {
	s := benchSuite(b)
	cp, err := s.Checkpoint("P-BICG", core.Detection, 2)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := cp.MissSelector()
	if err != nil {
		b.Fatal(err)
	}
	model := fault.StuckAt{BitsPerWord: 4, Blocks: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cp.Campaign(fault.Campaign{Runs: 100, Seed: int64(i + 1)}, model, sel)
		if err != nil {
			b.Fatal(err)
		}
	}
}
