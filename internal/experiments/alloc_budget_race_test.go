//go:build race

package experiments

// maxCampaignAllocsPerRun is the race build's per-run allocation budget.
// The race runtime drops a share of sync.Pool puts at random and
// instruments allocation, so the same hot path measures 5.5–7.2
// allocs/run (2-core x86-64, go1.24) against 2.6–4.3 without -race. The
// budget keeps the non-race build's headroom ratio (5.0 over ~3.7) on the
// worst race case: 7.2 × 5.0/3.7 ≈ 9.7.
const maxCampaignAllocsPerRun = 9.7
