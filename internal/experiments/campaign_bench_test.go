package experiments

import (
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// Campaign benchmark shape: the per-(configuration) cost of the two
// fault-injection figures, at a statistically small but non-trivial run
// count so one op is one campaign, not one run. BENCH_campaign.json
// records the committed baseline (plus the pre-fork clone-path numbers
// under the *PreFork names); scripts/bench.sh regenerates it and CI
// compares warn-only via scripts/bench_compare.sh. Both benchmarks run
// on a one-worker suite pool, so one op is one serial campaign.
const benchCampaignRuns = 100

// benchHotSelector builds the Fig. 6 hot-block selector for an app the
// same way fig6HotVsRest's selector phase does.
func benchHotSelector(b *testing.B, s *Suite, name string) *fault.SetSelector {
	b.Helper()
	app, err := s.App(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := s.Profile(name)
	if err != nil {
		b.Fatal(err)
	}
	hotNames := make(map[string]bool, app.HotCount)
	for _, o := range app.HotObjects() {
		hotNames[o.Name] = true
	}
	var hotBlocks []arch.BlockAddr
	for _, blk := range p.Blocks {
		if hotNames[blk.Object] {
			hotBlocks = append(hotBlocks, blk.Block)
		}
	}
	sel, err := fault.NewSetSelector(hotBlocks)
	if err != nil {
		b.Fatal(err)
	}
	return sel
}

// BenchmarkCampaignFig6 measures one Fig. 6 hot-set campaign for P-BICG
// (2-bit/1-block faults, the figure's first configuration) — the per-cell
// cost of the fig6 grid, on the fork + checkpoint fast path.
func BenchmarkCampaignFig6(b *testing.B) {
	s := poolSuite(b, 1)
	sel := benchHotSelector(b, s, "P-BICG")
	model := fault.StuckAt{BitsPerWord: 2, Blocks: 1}
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cp.Golden(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cp.Campaign(fault.Campaign{Runs: benchCampaignRuns, Seed: 7}, model, sel)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs != benchCampaignRuns {
			b.Fatalf("runs = %d", res.Runs)
		}
	}
}

// BenchmarkCampaignFig9 measures one Fig. 9 configuration task for P-BICG
// under detection at the hot protection level: checkpoint lookup,
// miss-weighted selector, and a 2-bit/1-block campaign — the per-task cost
// of the fig9 sweep once its (app, scheme, level) checkpoint is memoized,
// as it is for every fault model after a sweep's first.
func BenchmarkCampaignFig9(b *testing.B) {
	s := poolSuite(b, 1)
	baseApp, err := s.App("P-BICG")
	if err != nil {
		b.Fatal(err)
	}
	level := baseApp.HotCount
	model := fault.StuckAt{BitsPerWord: 2, Blocks: 1}
	warm, err := s.Checkpoint("P-BICG", core.Detection, level)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Golden(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := s.Checkpoint("P-BICG", core.Detection, level)
		if err != nil {
			b.Fatal(err)
		}
		sel, err := cp.MissSelector()
		if err != nil {
			b.Fatal(err)
		}
		res, err := cp.Campaign(fault.Campaign{Runs: benchCampaignRuns, Seed: 11}, model, sel)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs != benchCampaignRuns {
			b.Fatalf("runs = %d", res.Runs)
		}
	}
}
