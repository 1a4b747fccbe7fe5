package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// Outcome classifies one fault-injected application run.
type Outcome int

// Run outcomes.
const (
	// Masked: the output matched the fault-free baseline within the
	// application's error threshold (includes runs repaired by correction).
	Masked Outcome = iota + 1
	// SDC: silent data corruption — the output deviated past the threshold
	// with no error signalled.
	SDC
	// Detected: the detection scheme terminated the run (a DUE, not an SDC).
	Detected
	// Crashed: the run failed for another reason (e.g. a fault-induced
	// out-of-bounds access).
	Crashed
	// DUE: detected uncorrectable error — ECC or a duplication scheme saw
	// the corruption but could not repair it, so the run aborted rather
	// than producing (possibly wrong) output. Distinct from Detected,
	// where the protection scheme terminates cleanly by design, and from
	// SDC, where nothing signalled at all.
	DUE
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "sdc"
	case Detected:
		return "detected"
	case Crashed:
		return "crashed"
	case DUE:
		return "due"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Outcomes lists every outcome in canonical presentation order — the
// order telemetry labels, CSV columns, and report tables share. Exporters
// iterate this slice (never a map), which is what keeps column order
// deterministic across runs.
func Outcomes() []Outcome {
	return []Outcome{Masked, SDC, Detected, Crashed, DUE}
}

// RunFunc executes one fault-injected run. Implementations clone the golden
// memory image, inject faults with the provided rng, execute the
// application functionally, and classify the output.
type RunFunc func(runIdx int, rng *rand.Rand) (Outcome, error)

// BatchRunFunc executes a contiguous claim of runs [start, start+len(rngs))
// in one call, returning exactly one Outcome per run in index order.
// rngs[i] is the same (Seed, start+i)-derived stream RunFunc would receive
// for the run, so a batched executor that consumes each rng only for its
// own run's injection reproduces the per-run path bit-for-bit.
type BatchRunFunc func(start int, rngs []*rand.Rand) ([]Outcome, error)

// DefaultBatch is the claim width every experiment campaign runs at: one
// bit-parallel classification sweep resolves up to 64 lanes
// (mem.BatchLanes).
const DefaultBatch = 64

// Campaign executes many independent fault-injection runs.
type Campaign struct {
	// Runs is the experiment count (the paper uses 1000 for 95% confidence
	// with ±3% error margins).
	Runs int
	// Seed makes the campaign reproducible: run i uses an rng derived from
	// (Seed, i), so results are independent of how the runs are split
	// into claims or ranges.
	Seed int64
	// Workers is ignored: a campaign executes serially, and callers that
	// want host parallelism run disjoint ranges on their own pool.
	//
	// Deprecated: kept only so existing callers compile; it has no effect.
	Workers int
	// Batch sets how many runs a batched executor claims and replays per
	// functional pass: 0 picks DefaultBatch, 1 disables batching, larger
	// values bound the claim size. Outcomes are independent of Batch (the
	// per-run rng derivation never changes), so it only sets the executor's
	// claim grain.
	Batch int
	// Metrics, when non-nil, receives live outcome counters
	// (dcrm_fault_runs_total{outcome=...}) and the run-granular
	// dcrm_campaign_runs_total as runs complete, so a long campaign can be
	// watched over a /metrics endpoint. Both count runs, never batches.
	// Observation only: attaching a registry does not change campaign
	// results.
	Metrics *telemetry.Registry
}

// BatchSize resolves the configured Batch (0 = DefaultBatch, minimum 1).
func (c Campaign) BatchSize() int {
	if c.Batch == 0 {
		return DefaultBatch
	}
	if c.Batch < 1 {
		return 1
	}
	return c.Batch
}

// Result aggregates campaign outcomes.
type Result struct {
	// Runs is the number executed.
	Runs int
	// Counts per outcome.
	MaskedRuns   int
	SDCRuns      int
	DetectedRuns int
	CrashedRuns  int
	DUERuns      int
}

// Count returns the tally for one outcome (0 for invalid outcomes).
func (r Result) Count(o Outcome) int {
	switch o {
	case Masked:
		return r.MaskedRuns
	case SDC:
		return r.SDCRuns
	case Detected:
		return r.DetectedRuns
	case Crashed:
		return r.CrashedRuns
	case DUE:
		return r.DUERuns
	}
	return 0
}

// Add accumulates another result into r — the coordinator-side merge of
// shard-local outcome counts. Because every run's outcome is a pure
// function of (seed, run index), merging the results of any disjoint
// run-index ranges covering [0, Runs) reproduces the single-process
// campaign result exactly.
func (r *Result) Add(o Result) {
	r.Runs += o.Runs
	r.MaskedRuns += o.MaskedRuns
	r.SDCRuns += o.SDCRuns
	r.DetectedRuns += o.DetectedRuns
	r.CrashedRuns += o.CrashedRuns
	r.DUERuns += o.DUERuns
}

// SDCRate returns the fraction of runs that produced silent data
// corruption.
func (r Result) SDCRate() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.SDCRuns) / float64(r.Runs)
}

// ConfidenceHalfWidth returns the 95% normal-approximation half-width of
// the SDC rate estimate — the ±3% the paper cites at 1000 runs.
func (r Result) ConfidenceHalfWidth() float64 {
	if r.Runs == 0 {
		return 0
	}
	p := r.SDCRate()
	return 1.96 * math.Sqrt(p*(1-p)/float64(r.Runs))
}

// Execute runs the campaign serially, lowest run index first. The first
// run error aborts the campaign.
func (c Campaign) Execute(run RunFunc) (Result, error) {
	return c.ExecuteRange(0, c.Runs, run)
}

// runSeed derives run i's rng seed deterministically from (Seed, i).
func (c Campaign) runSeed(i int) int64 {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio multiplier
	return c.Seed ^ (int64(i)+1)*mix
}

// runRNG derives run i's random stream deterministically from (Seed, i).
func (c Campaign) runRNG(i int) *rand.Rand {
	return rand.New(rand.NewSource(c.runSeed(i)))
}

// ExecuteRange runs only the run indices in [start, end) — one shard of
// the campaign. Each run's random stream is derived from (Seed, run index)
// exactly as a full Execute derives it, so executing any partition of
// [0, Runs) shard by shard and merging the results with Result.Add is
// byte-identical to the single-process campaign. The returned Result
// counts only the shard's runs.
func (c Campaign) ExecuteRange(start, end int, run RunFunc) (Result, error) {
	if run == nil {
		return Result{}, fmt.Errorf("fault: nil run function")
	}
	return c.executeRange(start, end, 1, func(lo int, rngs []*rand.Rand) ([]Outcome, error) {
		o, err := run(lo, rngs[0])
		if err != nil {
			return nil, err
		}
		return []Outcome{o}, nil
	})
}

// ExecuteBatched runs the whole campaign through a batched executor.
func (c Campaign) ExecuteBatched(run BatchRunFunc) (Result, error) {
	return c.ExecuteRangeBatched(0, c.Runs, run)
}

// ExecuteRangeBatched is ExecuteRange for a batched executor: the range is
// cut into contiguous claims of up to BatchSize() runs, each handed to run
// in one call. Claim boundaries depend only on (start, end, BatchSize), and
// every run keeps its (Seed, index)-derived rng, so results remain
// byte-identical across batch sizes — and mergeable with differently
// executed shards via Result.Add.
func (c Campaign) ExecuteRangeBatched(start, end int, run BatchRunFunc) (Result, error) {
	if run == nil {
		return Result{}, fmt.Errorf("fault: nil batch run function")
	}
	return c.executeRange(start, end, c.BatchSize(), run)
}

// rngPool holds rng sets (*[]*rand.Rand) between executeRange calls.
// Every rng is reseeded before use, so a pooled set carries no state from
// one campaign into the next.
var rngPool = sync.Pool{New: func() any { return new([]*rand.Rand) }}

// executeRange is the serial claim loop behind ExecuteRange (batch 1) and
// ExecuteRangeBatched: it walks [start, end) in claims of batch runs,
// lowest index first. Host parallelism belongs to the caller, which runs
// disjoint ranges concurrently and merges them with Result.Add.
func (c Campaign) executeRange(start, end, batch int, run BatchRunFunc) (Result, error) {
	if c.Runs <= 0 {
		return Result{}, fmt.Errorf("fault: campaign needs a positive run count, got %d", c.Runs)
	}
	if start < 0 || end > c.Runs || start >= end {
		return Result{}, fmt.Errorf("fault: shard range [%d, %d) outside campaign of %d runs", start, end, c.Runs)
	}
	var outcomes *telemetry.CounterVec
	var runsTotal *telemetry.Counter
	if c.Metrics != nil {
		outcomes = c.Metrics.CounterVec("dcrm_fault_runs_total",
			"Fault-injection runs completed, by outcome.", "outcome")
		runsTotal = c.Metrics.Counter("dcrm_campaign_runs_total",
			"Campaign runs completed — counted per run on both the batched and unbatched paths.")
	}

	// The claim's rngs come from rngPool and are reseeded per claim:
	// (*rand.Rand).Seed resets the source to the exact state a fresh
	// rand.New(rand.NewSource(seed)) starts in, so reuse changes nothing
	// about any run's stream while dropping the two allocations per run the
	// fresh construction paid. Many short ranges (one claim each) reuse
	// rngs across calls too.
	rp := rngPool.Get().(*[]*rand.Rand)
	defer rngPool.Put(rp)
	res := Result{Runs: end - start}
	for lo := start; lo < end; lo += batch {
		hi := min(lo+batch, end)
		for len(*rp) < hi-lo {
			*rp = append(*rp, rand.New(rand.NewSource(0)))
		}
		rngs := (*rp)[:hi-lo]
		for i, r := range rngs {
			r.Seed(c.runSeed(lo + i))
		}
		os, err := run(lo, rngs)
		if err != nil {
			return Result{}, err
		}
		if len(os) != hi-lo {
			return Result{}, fmt.Errorf("fault: batch run [%d, %d) returned %d outcomes, want %d",
				lo, hi, len(os), hi-lo)
		}
		// The run counters advance run by run even when the claim
		// executed as one batch.
		for _, o := range os {
			switch o {
			case Masked:
				res.MaskedRuns++
			case SDC:
				res.SDCRuns++
			case Detected:
				res.DetectedRuns++
			case Crashed:
				res.CrashedRuns++
			case DUE:
				res.DUERuns++
			default:
				return Result{}, fmt.Errorf("fault: run returned invalid outcome %d", int(o))
			}
			if outcomes != nil {
				outcomes.With(o.String()).Inc()
				runsTotal.Inc()
			}
		}
	}
	return res, nil
}
