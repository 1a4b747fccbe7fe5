package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// probeRuns is how many campaign runs the probe samples per checkpoint.
const probeRuns = 12

// stageTimes collects the per-stage probe samples.
type stageTimes struct {
	fork, reset, inject, inert, run, diverge, classify []float64 // µs, run in ms
	protected                                          map[core.Scheme][]float64
	copies                                             []float64
	batchPerRun                                        []float64
	parity                                             int
}

func newStageTimes() *stageTimes {
	return &stageTimes{protected: map[core.Scheme][]float64{}}
}

func us(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// probeCheckpoint drives runs [0, probeRuns) of the campaign (seed, model,
// sel) on cp twice: once stage by stage through the public calls, each
// timed on its own, and once through Checkpoint.RunBatch. Every run's
// staged outcome must equal its batched outcome.
func (b *bench) probeCheckpoint(cp *experiments.Checkpoint, scheme core.Scheme, model fault.Model,
	sel fault.Selector, seed int64, label string, st *stageTimes) error {
	sp := b.spans.begin("probe "+label, "probe")
	defer sp.end()

	// The classifier's golden post-run image, rebuilt from the public
	// golden run on a fork of the prepared image.
	goldenPost := cp.App.Mem.Fork()
	if err := cp.App.RunOn(goldenPost, nil); err != nil {
		return fmt.Errorf("%s golden run: %w", label, err)
	}
	golden, err := cp.Golden()
	if err != nil {
		return err
	}
	b.check(reflect.DeepEqual(cp.App.Output(goldenPost), golden), "%s: golden output differs from the checkpoint's", label)
	cls := fault.Classifier{Golden: golden, GoldenPost: goldenPost, Metric: cp.App.Metric, DetectErr: core.ErrFaultDetected}

	staged := make([]fault.Outcome, probeRuns)
	var f *mem.Memory
	one := fault.Campaign{Runs: probeRuns, Seed: seed, Workers: 1, Batch: 1}
	for i := 0; i < probeRuns; i++ {
		_, err := one.ExecuteRange(i, i+1, func(idx int, rng *rand.Rand) (fault.Outcome, error) {
			stage := func(name string) *span { return b.spans.begin(name, "probe "+label) }
			s := stage("mem.fork_reset")
			t := time.Now()
			if f == nil {
				f = cp.App.Mem.Fork()
				st.fork = append(st.fork, us(t))
			} else {
				f.Reset()
				st.reset = append(st.reset, us(t))
			}
			s.end()

			s = stage("fault.inject")
			t = time.Now()
			inj, err := fault.Inject(f, rng, model, sel, &fault.Env{Scratch: &fault.Scratch{}})
			st.inject = append(st.inject, us(t))
			s.end()
			if err != nil {
				return 0, err
			}
			if inj.Pre != 0 {
				staged[idx] = inj.Pre
				return inj.Pre, nil
			}

			s = stage("mem.faults_inert")
			t = time.Now()
			inert := f.DirtyBlocks() == 0 && f.FaultsInert()
			st.inert = append(st.inert, us(t))
			s.end()
			if inert {
				staged[idx] = fault.Masked
				return fault.Masked, nil
			}

			before := f.CopiedBlocks()
			s = stage("simt.run_on")
			t = time.Now()
			var runErr error
			if cp.Plan != nil {
				runErr = cp.App.RunOn(f, cp.Plan.ForMemory(f))
			} else {
				runErr = cp.App.RunOn(f, nil)
			}
			ms := us(t) / 1e3
			s.end()
			if cp.Plan != nil {
				st.protected[scheme] = append(st.protected[scheme], ms)
			} else {
				st.run = append(st.run, ms)
			}
			st.copies = append(st.copies, float64(f.CopiedBlocks()-before))

			s = stage("mem.diverges_from")
			t = time.Now()
			f.DivergesFrom(goldenPost)
			st.diverge = append(st.diverge, us(t))
			s.end()

			s = stage("fault.classify")
			t = time.Now()
			o, err := cls.Classify(runErr, f, cp.App.Output)
			st.classify = append(st.classify, us(t))
			s.end()
			staged[idx] = o
			return o, err
		})
		if err != nil {
			return fmt.Errorf("%s run %d: %w", label, i, err)
		}
	}

	batched := make([]fault.Outcome, probeRuns)
	many := fault.Campaign{Runs: probeRuns, Seed: seed, Workers: 1, Batch: probeRuns}
	_, err = many.ExecuteRangeBatched(0, probeRuns, func(lo int, rngs []*rand.Rand) ([]fault.Outcome, error) {
		s := b.spans.begin("experiments.run_batch", "probe "+label)
		t := time.Now()
		outs, err := cp.RunBatch(lo, rngs, model, sel)
		st.batchPerRun = append(st.batchPerRun, us(t)/float64(len(rngs)))
		s.end()
		copy(batched[lo:], outs)
		return outs, err
	})
	if err != nil {
		return fmt.Errorf("%s batch: %w", label, err)
	}
	for i := range staged {
		b.check(staged[i] == batched[i], "%s run %d: staged outcome %v, batched %v", label, i, staged[i], batched[i])
	}
	st.parity += probeRuns
	return nil
}

// report sets the probe's per-stage metrics.
func (st *stageTimes) report(b *bench) {
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			b.set(name, median(xs))
		}
	}
	set("mem.fork_us", st.fork)
	set("mem.fork_reset_us", st.reset)
	set("fault.inject_us", st.inject)
	set("mem.inert_check_us", st.inert)
	set("simt.run_ms", st.run)
	set("mem.diverge_us", st.diverge)
	set("fault.classify_us", st.classify)
	set("experiments.batch_us_per_run", st.batchPerRun)
	if len(st.copies) > 0 {
		var sum float64
		for _, c := range st.copies {
			sum += c
		}
		b.set("mem.block_copies_per_run", sum/float64(len(st.copies)))
	}
	b.set("probe.parity_runs", float64(st.parity))
}

// hotRestSelectors rebuilds Fig. 6's hot and rest injection spaces from the
// app's profile: the accessed blocks of the hot objects, and every other
// accessed block.
func hotRestSelectors(s *experiments.Suite, name string) (hot, rest fault.Selector, err error) {
	app, err := s.App(name)
	if err != nil {
		return nil, nil, err
	}
	p, err := s.Profile(name)
	if err != nil {
		return nil, nil, err
	}
	hotNames := map[string]bool{}
	for _, o := range app.HotObjects() {
		hotNames[o.Name] = true
	}
	var hb, rb []arch.BlockAddr
	for _, bs := range p.Blocks {
		if hotNames[bs.Object] {
			hb = append(hb, bs.Block)
		} else {
			rb = append(rb, bs.Block)
		}
	}
	if hot, err = fault.NewSetSelector(hb); err != nil {
		return nil, nil, err
	}
	rest, err = fault.NewSetSelector(rb)
	return hot, rest, err
}

// probeCampaign samples Fig. 6 runs: every app's unprotected checkpoint,
// hot and rest spaces.
func (b *bench) probeCampaign(s *experiments.Suite, apps []string) error {
	st := newStageTimes()
	for _, name := range apps {
		cp, err := s.Checkpoint(name, core.None, 0)
		if err != nil {
			return err
		}
		hot, rest, err := hotRestSelectors(s, name)
		if err != nil {
			return err
		}
		for _, sp := range []struct {
			label string
			sel   fault.Selector
		}{{"hot", hot}, {"rest", rest}} {
			if err := b.probeCheckpoint(cp, core.None, probeModel, sp.sel, b.seed,
				fmt.Sprintf("%s/%s", name, sp.label), st); err != nil {
				return err
			}
		}
	}
	st.report(b)
	for _, m := range []string{"core.protected_run_ms", "core.protected_run_ms.detection",
		"core.protected_run_ms.correction", "core.protect_overhead_x"} {
		b.notApplicable(m, "campaign checkpoints are unprotected")
	}
	for _, m := range []string{"experiments.artifact_build_s.golden", "experiments.artifact_build_s.capture",
		"experiments.artifact_build_s.missweights", "timing.missweights_s", "experiments.fig9_sdc_drop_gap_pp"} {
		b.notApplicable(m, "measured on the resilience workload")
	}
	return nil
}

// probeResilience samples Fig. 9 runs on every app's hot-level detection
// and correction checkpoints, times the protected read path against the
// unprotected one, and times each checkpoint artifact build on a fresh
// suite.
func (b *bench) probeResilience(s *experiments.Suite, apps []string) error {
	st := newStageTimes()
	var plainMS, protMS float64
	for _, name := range apps {
		app, err := s.App(name)
		if err != nil {
			return err
		}
		level := hotLevel(app)
		base, err := s.Checkpoint(name, core.None, 0)
		if err != nil {
			return err
		}
		for _, scheme := range []core.Scheme{core.Detection, core.Correction} {
			cp, err := s.Checkpoint(name, scheme, level)
			if err != nil {
				return err
			}
			sel, err := cp.MissSelector()
			if err != nil {
				return err
			}
			if err := b.probeCheckpoint(cp, scheme, probeModel, sel, b.seed,
				fmt.Sprintf("%s/%v/L%d", name, scheme, level), st); err != nil {
				return err
			}
			if cp.Plan == nil {
				continue
			}
			// Fault-free read-path cost: the same app with and without the
			// plan's reader.
			plain, prot := timeRuns(base, nil), timeRuns(cp, cp.Plan)
			plainMS += plain
			protMS += prot
		}
	}
	st.report(b)
	b.set("core.protected_run_ms.detection", median(st.protected[core.Detection]))
	b.set("core.protected_run_ms.correction", median(st.protected[core.Correction]))
	b.set("core.protected_run_ms", median(append(append([]float64(nil), st.protected[core.Detection]...),
		st.protected[core.Correction]...)))
	if plainMS > 0 {
		b.set("core.protect_overhead_x", protMS/plainMS)
	}
	b.notApplicable("simt.run_ms", "resilience samples protected checkpoints; see core.protected_run_ms")
	return b.probeArtifacts(apps)
}

// timeRuns returns the median fault-free RunOn time (ms) on a fork of cp,
// through plan's reader when plan is non-nil.
func timeRuns(cp *experiments.Checkpoint, plan *core.Plan) float64 {
	var xs []float64
	f := cp.App.Mem.Fork()
	for i := 0; i < 3; i++ {
		f.Reset()
		t := time.Now()
		if plan != nil {
			cp.App.RunOn(f, plan.ForMemory(f))
		} else {
			cp.App.RunOn(f, nil)
		}
		xs = append(xs, us(t)/1e3)
	}
	return median(xs)
}

// probeArtifacts times each checkpoint artifact build (and the miss-weight
// timing replay behind one) on a fresh suite, for every app's hot-level
// correction checkpoint.
func (b *bench) probeArtifacts(apps []string) error {
	s, err := experiments.NewSuite(experiments.SuiteConfig{Seed: b.seed})
	if err != nil {
		return err
	}
	per := map[string]float64{}
	var replay float64
	for _, name := range apps {
		app, err := s.App(name)
		if err != nil {
			return err
		}
		cp, err := s.Checkpoint(name, core.Correction, hotLevel(app))
		if err != nil {
			return err
		}
		for _, kind := range []string{experiments.ArtifactGolden, experiments.ArtifactCapture, experiments.ArtifactMissWeights} {
			sp := b.spans.begin("probe.build_artifact "+kind+" "+name, "probe")
			t := time.Now()
			err := cp.BuildArtifact(kind)
			per[kind] += since(t)
			sp.end()
			if err != nil {
				return err
			}
		}
		sp := b.spans.begin("probe.miss_weighted_selector "+name, "probe")
		t := time.Now()
		_, err = experiments.MissWeightedSelector(cp.App, cp.Plan, s.SimShards())
		replay += since(t)
		sp.end()
		if err != nil {
			return err
		}
	}
	n := float64(len(apps))
	b.set("experiments.artifact_build_s.golden", per[experiments.ArtifactGolden]/n)
	b.set("experiments.artifact_build_s.capture", per[experiments.ArtifactCapture]/n)
	b.set("experiments.artifact_build_s.missweights", per[experiments.ArtifactMissWeights]/n)
	b.set("timing.missweights_s", replay/n)
	return nil
}
