//go:build !race

package experiments

// maxCampaignAllocsPerRun is the steady-state allocation budget for one
// campaign run on a warm checkpoint. With the injection scratch pooled and
// per-run rngs reseeded in place, a run costs under 4 heap allocations;
// the pre-pooling path cost ~7 (the committed BENCH_campaign baseline was
// 713 allocs per 100-run Fig. 6 campaign). The bound leaves headroom for
// runtime noise while still failing loudly if a hot-path allocation
// regresses back in.
const maxCampaignAllocsPerRun = 5.0
