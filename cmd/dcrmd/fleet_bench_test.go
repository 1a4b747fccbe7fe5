package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fleet"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// BenchmarkFleetCampaign measures campaign wall-clock against fleet size:
// one coordinator, N in-process workers, each worker's suite pinned to a
// single campaign goroutine so a worker models one host (or one core).
// Wall-clock therefore scales with min(N, GOMAXPROCS): on a multi-core
// host the workers=3 case approaches 3× the workers=1 throughput, while on
// a single-core host the two are equal — the fabric adds coordination, not
// cores. scripts/bench.sh records both cases in BENCH_fleet.json and
// scripts/bench_compare.sh reports the ratio (warn-only).
func BenchmarkFleetCampaign(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) { benchFleet(b, n) })
	}
}

func benchFleet(b *testing.B, nWorkers int) {
	reg := telemetry.NewRegistry()
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		ValidateSpec:   experiments.ValidateSpec,
	})
	r := newRunner(experiments.SuiteConfig{NNTrainSamples: 60}, reg, 64)
	srv := httptest.NewServer(newMux(r, coord, reg, false))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < nWorkers; i++ {
		// A 20-run shard is a single batch claim, so the suite pool runs
		// its campaign as one unit on one goroutine and fleet size is the
		// only parallelism knob being measured.
		s, err := experiments.NewSuite(experiments.SuiteConfig{
			NNTrainSamples: 60, Workers: runtime.GOMAXPROCS(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("bench-%d", i),
			Run:         experiments.ShardRunner(s),
			IdleWait:    2 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx) }()
		defer func() { cancel(); <-done }()
	}

	spec := fleet.CampaignSpec{
		App: "P-BICG", Scheme: "none", Space: "hot",
		Model: "stuck-at:bits=2,blocks=1",
		Runs:  240, ShardRuns: 20, // 12 shards per campaign
	}
	runJob := func(seed int64) {
		spec.Seed = seed
		st, err := coord.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		for {
			cur, ok := coord.Job(st.ID)
			if !ok {
				b.Fatalf("job %s vanished", st.ID)
			}
			if cur.State == fleet.JobDone {
				return
			}
			if cur.State == fleet.JobFailed {
				b.Fatalf("fleet job failed: %s", cur.Error)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Warm-up: builds every worker's checkpoint (golden run, fork pools)
	// outside the timed region, like a fleet that has been up for a while.
	runJob(999)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh seed per iteration keeps the content-addressed store from
		// serving previous iterations' shard results.
		runJob(int64(1000 + i))
	}
}
