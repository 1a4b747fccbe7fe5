package experiments

import (
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// TestCampaignAllocRegression gates the campaign hot path's per-run heap
// allocations against maxCampaignAllocsPerRun (alloc_budget_*_test.go).
// Batches of 8 and 64 run on the suite pool (runCampaigns), where each
// batch claim is its own serial range call and the pooled rngs must be
// reused across calls; batch 1 gates the per-run reference path, RunOne,
// under the serial executor.
func TestCampaignAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	s := testSuite(t)
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Golden(); err != nil {
		t.Fatal(err)
	}
	sel, err := cp.MissSelector()
	if err != nil {
		t.Fatal(err)
	}
	// An interface value, boxed once here: the per-run closure below would
	// otherwise box the struct on every RunOne call.
	var model fault.Model = fault.StuckAt{BitsPerWord: 2, Blocks: 1}
	const runs = 200
	for _, batch := range []int{1, 8, 64} {
		var res fault.Result
		var rerr error
		allocs := testing.AllocsPerRun(5, func() {
			c := fault.Campaign{Runs: runs, Seed: 7, Batch: batch}
			if batch == 1 {
				res, rerr = c.Execute(func(_ int, rng *rand.Rand) (fault.Outcome, error) {
					return cp.RunOne(rng, model, sel)
				})
				return
			}
			res, rerr = cp.Campaign(c, model, sel)
		})
		if rerr != nil {
			t.Fatal(rerr)
		}
		if res.Runs != runs {
			t.Fatalf("batch=%d ran %d runs, want %d", batch, res.Runs, runs)
		}
		perRun := allocs / runs
		t.Logf("batch=%d: %.2f allocs per run", batch, perRun)
		if perRun > maxCampaignAllocsPerRun {
			t.Errorf("batch=%d campaign allocates %.2f per run, budget %.1f",
				batch, perRun, maxCampaignAllocsPerRun)
		}
	}
}
