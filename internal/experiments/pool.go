package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// ProgressEvent is one fan-out progress notification: Done of Total task
// units of the named experiment phase have completed. Total is fixed for
// the lifetime of a phase, so a reporter can derive completion percentage
// and an ETA from the event stream alone.
type ProgressEvent struct {
	// Phase labels the experiment fan-out (e.g. "fig7: timing sweep").
	Phase string
	// Done and Total count completed vs. scheduled task units.
	Done, Total int
}

// ProgressFunc receives fan-out progress events. The suite serializes
// calls, so implementations need no locking of their own.
type ProgressFunc func(ProgressEvent)

// workers resolves the suite's configured worker bound (0 = GOMAXPROCS).
func (s *Suite) workers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// campaign builds a fault.Campaign with the suite's telemetry registry, so
// every experiment's campaigns report live outcome counters when the suite
// is observed. Batch stays 0: every campaign claims fault.DefaultBatch runs
// at a time, the bit-parallel sweep width.
func (s *Suite) campaign(runs int, seed int64) fault.Campaign {
	return fault.Campaign{Runs: runs, Seed: seed, Metrics: s.cfg.Telemetry}
}

// campaignCell is one campaign to run on the suite pool: the runs
// [start, end) of c against a checkpoint under one fault model and block
// selector (a whole campaign is [0, c.Runs)).
type campaignCell struct {
	cp         *Checkpoint
	model      fault.Model
	sel        fault.Selector
	c          fault.Campaign
	start, end int
	// what names the cell in errors (e.g. "fig6 P-BICG/hot/stuck-at...").
	what string
}

// runCampaigns runs every cell on the suite pool and returns one merged
// result per cell. It is the only way a campaign executes: each cell is
// split into units of BatchSize() runs — the same [lo, hi) claims
// fault.Campaign would make — and every unit is one pool task running the
// checkpoint's serial runRange, so a cell's runs spread over the whole
// pool. Run i keeps its (Seed, i) rng whatever unit executes it, so
// merging a cell's units with fault.Result.Add reproduces the serial
// campaign byte for byte. Cancelling ctx (or the suite's context) stops
// the fan-out between units.
//
// Units start lowest index first, except that a worker skips units whose
// checkpoint another worker is running. A batch claim holds one fork per
// run, and the checkpoint's fork pool keeps every fork it ever handed out,
// so two concurrent units on one checkpoint would double the forks each
// checkpoint retains. Units of a busy checkpoint run only when nothing
// else is pending.
func (s *Suite) runCampaigns(ctx context.Context, phase string, cells []campaignCell) ([]fault.Result, error) {
	type unit struct{ cell, lo, hi int }
	var units []unit
	for i, c := range cells {
		// At least one unit per cell, so an empty or invalid range surfaces
		// CampaignRange's error rather than a silent zero result.
		for lo, b := c.start, c.c.BatchSize(); ; lo += b {
			hi := min(lo+b, c.end)
			units = append(units, unit{i, lo, hi})
			if hi >= c.end {
				break
			}
		}
	}
	var (
		mu    sync.Mutex
		taken = make([]bool, len(units))
		first int // lowest unit not yet taken
		busy  = make(map[*Checkpoint]int)
	)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		for taken[first] {
			first++
		}
		pick := first
		for j := first; j < len(units); j++ {
			if !taken[j] && busy[cells[units[j].cell].cp] == 0 {
				pick = j
				break
			}
		}
		taken[pick] = true
		busy[cells[units[pick].cell].cp]++
		return pick
	}
	parts := make([]fault.Result, len(units))
	err := s.runTasks(phase, len(units), func(int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		j := take()
		u := units[j]
		c := cells[u.cell]
		res, err := c.cp.runRange(c.c, u.lo, u.hi, c.model, c.sel)
		mu.Lock()
		if busy[c.cp]--; busy[c.cp] == 0 {
			delete(busy, c.cp)
		}
		mu.Unlock()
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", c.what, err)
		}
		parts[j] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]fault.Result, len(cells))
	for i, u := range units {
		out[u.cell].Add(parts[i])
	}
	return out, nil
}

// runTasks executes n independent task units on at most s.workers()
// goroutines and reports completion progress to the suite's ProgressFunc.
// Task i writes its result into caller-owned slot i, so the caller
// assembles output in the same order as a serial loop would — parallel
// runs are bit-identical to serial ones as long as each task is itself
// deterministic. The first task error aborts the fan-out (in-flight tasks
// finish; queued ones are skipped) and is returned.
func (s *Suite) runTasks(phase string, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := s.workers()
	if workers > n {
		workers = n
	}

	// Telemetry (optional): per-phase task counters, a task-duration
	// histogram, and an in-flight gauge. The children are resolved once
	// here, outside the worker loop.
	var (
		tasksDone *telemetry.Counter
		taskSecs  *telemetry.Histogram
		inflight  *telemetry.Gauge
	)
	if reg := s.cfg.Telemetry; reg != nil {
		tasksDone = reg.CounterVec("dcrm_experiment_tasks_total",
			"Experiment fan-out task units completed, per phase.", "phase").With(phase)
		taskSecs = reg.HistogramVec("dcrm_experiment_task_seconds",
			"Experiment task-unit durations in seconds, per phase.", telemetry.DefBuckets, "phase").With(phase)
		inflight = reg.Gauge("dcrm_experiment_tasks_inflight",
			"Experiment task units currently executing.")
	}

	var (
		mu      sync.Mutex
		next    int
		done    int
		firstEr error
		wg      sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		// Cancellation (the daemon's graceful shutdown) aborts between task
		// units: queued units are skipped and the fan-out returns ctx.Err().
		if firstEr == nil {
			if err := s.ctx.Err(); err != nil {
				firstEr = err
			}
		}
		if firstEr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	finish := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstEr == nil {
			firstEr = err
		}
		done++
		if s.cfg.Progress != nil {
			s.cfg.Progress(ProgressEvent{Phase: phase, Done: done, Total: n})
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				var started time.Time
				if tasksDone != nil {
					inflight.Add(1)
					started = time.Now()
				}
				err := task(i)
				if tasksDone != nil {
					inflight.Add(-1)
					tasksDone.Inc()
					taskSecs.Observe(time.Since(started).Seconds())
				}
				finish(err)
			}
		}()
	}
	wg.Wait()
	return firstEr
}
