package experiments

import (
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// wholeImageSelector targets every block of the checkpoint's image —
// inputs, outputs, padding, and replicas.
func wholeImageSelector(t *testing.T, cp *Checkpoint) fault.Selector {
	t.Helper()
	blocks := make([]arch.BlockAddr, cp.App.Mem.TotalBlocks())
	for i := range blocks {
		blocks[i] = arch.BlockAddr(i)
	}
	sel, err := fault.NewSetSelector(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// perRunOutcomes collects each run's verdict (not just the aggregate
// counts) through the serial executor, on the per-run or the batched path.
func perRunOutcomes(t *testing.T, cp *Checkpoint, c fault.Campaign, model fault.Model, sel fault.Selector, batched bool) []fault.Outcome {
	t.Helper()
	outs := make([]fault.Outcome, c.Runs)
	var err error
	if batched {
		_, err = c.ExecuteRangeBatched(0, c.Runs, func(lo int, rngs []*rand.Rand) ([]fault.Outcome, error) {
			os, err := cp.RunBatch(lo, rngs, model, sel)
			if err != nil {
				return nil, err
			}
			copy(outs[lo:], os)
			return os, nil
		})
	} else {
		_, err = c.ExecuteRange(0, c.Runs, func(i int, rng *rand.Rand) (fault.Outcome, error) {
			o, err := cp.RunOne(rng, model, sel)
			if err != nil {
				return 0, err
			}
			outs[i] = o
			return o, nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestBatchedRunOutcomeParity is the batched path's run-granular property
// test: under randomized campaign shapes (seed, batch size, pool width),
// every fault-model family × scheme must produce the exact per-run verdict
// vector the per-run path produces — not merely equal aggregate counts —
// and the same campaign split into units on a suite pool must tally
// exactly those verdicts. Run under -race in CI.
func TestBatchedRunOutcomeParity(t *testing.T) {
	s := testSuite(t)
	prng := rand.New(rand.NewSource(20260808))
	models := []string{
		"stuck-at:bits=3,blocks=2",
		"transient:flips=2",
		"burst",
	}
	apps := []string{"P-BICG", "P-GESUMMV", "A-Sobel"}
	for _, app := range apps {
		for _, scheme := range []core.Scheme{core.None, core.Detection, core.Correction} {
			for _, spec := range models {
				model, err := fault.ParseModel(spec)
				if err != nil {
					t.Fatal(err)
				}
				base, err := s.App(app)
				if err != nil {
					t.Fatal(err)
				}
				level := 0
				if scheme != core.None {
					level = base.HotCount
				}
				cp, err := s.Checkpoint(app, scheme, level)
				if err != nil {
					t.Fatal(err)
				}
				sel := wholeImageSelector(t, cp)

				runs := 8 + prng.Intn(12)
				seed := prng.Int63()
				batch := []int{2, 3, 5, 8, 64}[prng.Intn(5)]
				workers := 1 + prng.Intn(3)
				c := fault.Campaign{Runs: runs, Seed: seed, Batch: batch}

				want := perRunOutcomes(t, cp, c, model, sel, false)
				got := perRunOutcomes(t, cp, c, model, sel, true)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s %v L%d %s seed=%d batch=%d workers=%d: run %d = %v, per-run path says %v",
							app, scheme, level, spec, seed, batch, workers, i, got[i], want[i])
					}
				}
				tally, err := c.Execute(func(i int, _ *rand.Rand) (fault.Outcome, error) { return want[i], nil })
				if err != nil {
					t.Fatal(err)
				}
				if pooled := poolCampaign(t, workers, cp, c, model, sel); pooled != tally {
					t.Errorf("%s %v L%d %s seed=%d batch=%d workers=%d: pooled campaign %+v, per-run tally %+v",
						app, scheme, level, spec, seed, batch, workers, pooled, tally)
				}
			}
		}
	}
}

// counterValue reads one counter sample, treating an unregistered series
// as zero.
func counterValue(snap telemetry.Snapshot, name string, labels ...telemetry.Label) float64 {
	sample, ok := snap.Get(name, labels...)
	if !ok {
		return 0
	}
	return sample.Value
}

// TestBatchTelemetryReconciliation pins the batched path's observability
// contract: claims, lanes-per-claim observations, and run counts must
// reconcile exactly — batches equals the occupancy histogram's observation
// count, the occupancy sum equals the batch-executed runs, every campaign
// run is accounted for either pre-classified, pruned, or batch-executed,
// and the run-granular dcrm_campaign_runs_total matches the per-outcome
// dcrm_fault_runs_total tallies.
func TestBatchTelemetryReconciliation(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel := wholeImageSelector(t, cp)
	const runs = 40
	c := s.campaign(runs, 99)
	c.Batch = 8
	res, err := cp.Campaign(c, fault.StuckAt{BitsPerWord: 3, Blocks: 1}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != runs {
		t.Fatalf("result runs = %d, want %d", res.Runs, runs)
	}

	snap := reg.Snapshot()
	occ, ok := snap.Get("dcrm_campaign_batch_occupancy")
	if !ok {
		t.Fatal("no dcrm_campaign_batch_occupancy sample")
	}
	batches := counterValue(snap, "dcrm_campaign_batches_total")
	batchRuns := counterValue(snap, "dcrm_campaign_batch_runs_total")
	pruned := counterValue(snap, "dcrm_campaign_runs_pruned_total")
	pre := counterValue(snap, "dcrm_campaign_runs_preclassified_total")
	totalRuns := counterValue(snap, "dcrm_campaign_runs_total")

	if batches == 0 {
		t.Fatal("batched campaign executed zero claims")
	}
	if float64(occ.Count) != batches {
		t.Errorf("occupancy observations = %d, batches = %v", occ.Count, batches)
	}
	if occ.Value != batchRuns {
		t.Errorf("occupancy lane sum = %v, batch-executed runs = %v", occ.Value, batchRuns)
	}
	if pre+pruned+batchRuns != totalRuns {
		t.Errorf("pre %v + pruned %v + batch-executed %v != campaign runs %v",
			pre, pruned, batchRuns, totalRuns)
	}
	if totalRuns != float64(runs) {
		t.Errorf("dcrm_campaign_runs_total = %v, campaign ran %d", totalRuns, runs)
	}
	var byOutcome float64
	for _, o := range fault.Outcomes() {
		byOutcome += counterValue(snap, "dcrm_fault_runs_total",
			telemetry.Label{Name: "outcome", Value: o.String()})
	}
	if byOutcome != totalRuns {
		t.Errorf("sum of dcrm_fault_runs_total = %v, dcrm_campaign_runs_total = %v", byOutcome, totalRuns)
	}
}
