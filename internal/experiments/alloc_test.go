package experiments

import (
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// TestCampaignAllocRegression gates the campaign hot path's per-run heap
// allocations against maxCampaignAllocsPerRun (alloc_budget_*_test.go), on
// both the unbatched and the batched executor, and on the suite pool
// (runCampaigns), where every batch claim is its own CampaignRange call
// and the per-worker rngs must be reused across calls.
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
	model := fault.StuckAt{BitsPerWord: 2, Blocks: 1}
	const runs = 200
	for _, tc := range []struct {
		batch int
		pool  bool
	}{{1, false}, {8, false}, {8, true}, {64, true}} {
		var res fault.Result
		var rerr error
		allocs := testing.AllocsPerRun(5, func() {
			c := fault.Campaign{Runs: runs, Seed: 7, Workers: 1, Batch: tc.batch}
			if !tc.pool {
				res, rerr = cp.Campaign(c, model, sel)
				return
			}
			var merged []fault.Result
			merged, rerr = s.runCampaigns("alloc: campaigns", []campaignCell{{
				cp: cp, model: model, sel: sel, c: c, end: runs, what: "alloc"}})
			if rerr == nil {
				res = merged[0]
			}
		})
		if rerr != nil {
			t.Fatal(rerr)
		}
		if res.Runs != runs {
			t.Fatalf("batch=%d pool=%v ran %d runs, want %d", tc.batch, tc.pool, res.Runs, runs)
		}
		perRun := allocs / runs
		t.Logf("batch=%d pool=%v: %.2f allocs per run", tc.batch, tc.pool, perRun)
		if perRun > maxCampaignAllocsPerRun {
			t.Errorf("batch=%d pool=%v campaign allocates %.2f per run, budget %.1f",
				tc.batch, tc.pool, perRun, maxCampaignAllocsPerRun)
		}
	}
}
