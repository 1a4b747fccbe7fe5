package experiments

import (
	"context"
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/fleet"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// twoSuites builds one serial and one 8-worker suite with otherwise
// identical configuration.
func twoSuites(t *testing.T) (serial, parallel *Suite) {
	t.Helper()
	var err error
	serial, err = NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err = NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	return serial, parallel
}

// TestParallelMatchesSerial asserts the tentpole invariant: every
// experiment returns deeply equal results at Workers=1 and Workers=8 —
// per-task seed derivation and index-ordered assembly make worker
// scheduling invisible in the output.
func TestParallelMatchesSerial(t *testing.T) {
	serial, parallel := twoSuites(t)

	f3s, err := Fig3AccessProfiles(serial, 20)
	if err != nil {
		t.Fatal(err)
	}
	f3p, err := Fig3AccessProfiles(parallel, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f3s, f3p) {
		t.Error("Fig3: parallel results differ from serial")
	}

	f4s, err := Fig4WarpSharing(serial, 20)
	if err != nil {
		t.Fatal(err)
	}
	f4p, err := Fig4WarpSharing(parallel, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f4s, f4p) {
		t.Error("Fig4: parallel results differ from serial")
	}

	t3s, err := Table3DataObjects(serial)
	if err != nil {
		t.Fatal(err)
	}
	t3p, err := Table3DataObjects(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t3s, t3p) {
		t.Error("Table3: parallel results differ from serial")
	}

	f6cfg := Fig6Config{
		Runs:   24,
		Apps:   []string{"P-BICG", "A-Laplacian"},
		Models: []fault.Model{fault.StuckAt{BitsPerWord: 2, Blocks: 1}, fault.StuckAt{BitsPerWord: 4, Blocks: 5}},
	}
	f6s, err := Fig6HotVsRest(serial, f6cfg)
	if err != nil {
		t.Fatal(err)
	}
	f6p, err := Fig6HotVsRest(parallel, f6cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f6s, f6p) {
		t.Error("Fig6: parallel results differ from serial")
	}

	f7cfg := Fig7Config{Apps: []string{"P-BICG", "P-MVT"}}
	f7s, err := Fig7Overhead(serial, f7cfg)
	if err != nil {
		t.Fatal(err)
	}
	f7p, err := Fig7Overhead(parallel, f7cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f7s, f7p) {
		t.Error("Fig7: parallel results differ from serial")
	}

	f9cfg := Fig9Config{
		Runs:   24,
		Apps:   []string{"P-BICG"},
		Models: []fault.Model{fault.StuckAt{BitsPerWord: 3, Blocks: 5}},
	}
	f9s, err := Fig9Resilience(serial, f9cfg)
	if err != nil {
		t.Fatal(err)
	}
	f9p, err := Fig9Resilience(parallel, f9cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f9s, f9p) {
		t.Error("Fig9: parallel results differ from serial")
	}

	multiClaimParity(t, serial, parallel)
}

// multiClaimParity is TestParallelMatchesSerial for campaigns of several
// batch claims (Runs > Batch), the case where runCampaigns splits one cell
// into units that different pool workers execute. Batch-8 cells shaped like
// Fig. 6 (hot and rest sets), Fig. 9 (miss-weighted, protected) and the
// breakdown (whole image, stuck-at and transient), plus a range that starts
// and ends mid-claim, must agree at Workers 1 and 8 and equal the same
// range run unsplit by the serial executor. A RunShard range spanning
// several default-width claims checks the fleet path the same way.
func multiClaimParity(t *testing.T, serial, parallel *Suite) {
	t.Helper()
	const runs, batch = 40, 8 // five claims per whole-range cell
	stuck2 := fault.StuckAt{BitsPerWord: 2, Blocks: 1}
	stuck4 := fault.StuckAt{BitsPerWord: 4, Blocks: 5}
	space := func(name string) func(*Suite, *Checkpoint) (fault.Selector, error) {
		return func(s *Suite, cp *Checkpoint) (fault.Selector, error) {
			blocks, err := s.spaceBlocks(cp.App.Name, name)
			if err != nil {
				return nil, err
			}
			return fault.NewSetSelector(blocks)
		}
	}
	miss := func(_ *Suite, cp *Checkpoint) (fault.Selector, error) { return cp.MissSelector() }
	whole := func(_ *Suite, cp *Checkpoint) (fault.Selector, error) {
		blocks := make([]arch.BlockAddr, cp.App.Mem.TotalBlocks())
		for b := range blocks {
			blocks[b] = arch.BlockAddr(b)
		}
		return fault.NewSetSelector(blocks)
	}
	specs := []struct {
		what       string
		app        string
		scheme     core.Scheme
		level      int
		sel        func(*Suite, *Checkpoint) (fault.Selector, error)
		model      fault.Model
		seed       int64
		start, end int
	}{
		{"fig6 hot", "P-BICG", core.None, 0, space("hot"), stuck2, 7, 0, runs},
		{"fig6 rest", "P-BICG", core.None, 0, space("rest"), stuck4, 7, 0, runs},
		{"fig9 detection", "P-BICG", core.Detection, 1, miss, stuck4, 11, 0, runs},
		{"fig9 correction", "P-BICG", core.Correction, 1, miss, stuck4, 11, 0, runs},
		{"breakdown stuck-at", "P-MVT", core.None, 0, whole, fault.StuckAt{BitsPerWord: 3, Blocks: 1}, 13, 0, runs},
		{"breakdown transient", "P-MVT", core.Detection, 1, whole, fault.Transient{Flips: 2, Blocks: 1}, 13, 0, runs},
		// [3, 37): five units, the first and last partial.
		{"mid-claim range", "P-BICG", core.None, 0, space("hot"), stuck2, 19, 3, 37},
	}
	build := func(s *Suite) []campaignCell {
		cells := make([]campaignCell, len(specs))
		for i, sp := range specs {
			cp, err := s.Checkpoint(sp.app, sp.scheme, sp.level)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := sp.sel(s, cp)
			if err != nil {
				t.Fatal(err)
			}
			c := s.campaign(runs, sp.seed)
			c.Batch = batch
			cells[i] = campaignCell{cp: cp, model: sp.model, sel: sel, c: c,
				start: sp.start, end: sp.end, what: sp.what}
		}
		return cells
	}
	cells := build(serial)
	rs, err := serial.runCampaigns(context.Background(), "test: multi-claim", cells)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.runCampaigns(context.Background(), "test: multi-claim", build(parallel))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if rp[i] != rs[i] {
			t.Errorf("%s: parallel merged units %+v differ from serial %+v", c.what, rp[i], rs[i])
		}
		want, err := c.cp.runRange(c.c, c.start, c.end, c.model, c.sel)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i] != want {
			t.Errorf("%s: merged units %+v, unsplit range %+v", c.what, rs[i], want)
		}
	}

	// A shard range [3, 137) at the default claim width of 64: three units,
	// the first and last partial.
	spec := fleet.CampaignSpec{App: "P-BICG", Scheme: "none", Space: "hot",
		Model: "stuck-at:bits=2,blocks=1", Runs: 160, Seed: 19}
	sh := fleet.Shard{JobID: "multi-claim", Spec: spec, Start: 3, End: 137}
	cs, _, err := RunShard(context.Background(), serial, sh)
	if err != nil {
		t.Fatal(err)
	}
	cpar, _, err := RunShard(context.Background(), parallel, sh)
	if err != nil {
		t.Fatal(err)
	}
	if cs != cpar {
		t.Errorf("RunShard: parallel counts %+v differ from serial %+v", cpar, cs)
	}
	cp, err := serial.Checkpoint(spec.App, core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := shardSelector(serial, cp, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cp.runRange(serial.campaign(spec.Runs, spec.Seed), sh.Start, sh.End, stuck2, sel)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Result(); got != want {
		t.Errorf("RunShard [%d, %d): merged units %+v, unsplit range %+v", sh.Start, sh.End, got, want)
	}
}

// TestTelemetryDoesNotPerturbResults asserts the observation invariant at
// the suite level: a telemetry-observed parallel suite produces results
// deeply equal to an unobserved serial one, while the registry fills with
// fan-out and campaign counters.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	serial, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	observed, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 8, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	f6cfg := Fig6Config{
		Runs:   24,
		Apps:   []string{"P-BICG"},
		Models: []fault.Model{fault.StuckAt{BitsPerWord: 2, Blocks: 1}},
	}
	f6s, err := Fig6HotVsRest(serial, f6cfg)
	if err != nil {
		t.Fatal(err)
	}
	f6o, err := Fig6HotVsRest(observed, f6cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f6s, f6o) {
		t.Error("Fig6: telemetry-observed results differ from unobserved serial run")
	}

	f7cfg := Fig7Config{Apps: []string{"P-MVT"}}
	f7s, err := Fig7Overhead(serial, f7cfg)
	if err != nil {
		t.Fatal(err)
	}
	f7o, err := Fig7Overhead(observed, f7cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f7s, f7o) {
		t.Error("Fig7: telemetry-observed results differ from unobserved serial run")
	}

	snap := reg.Snapshot()
	if s, ok := snap.Get("dcrm_fault_runs_total", telemetry.Label{Name: "outcome", Value: "masked"}); !ok || s.Value == 0 {
		t.Errorf("campaign outcome counters not published: %+v", s)
	}
	var tasks float64
	for _, s := range snap {
		if s.Name == "dcrm_experiment_tasks_total" {
			tasks += s.Value
		}
	}
	if tasks == 0 {
		t.Error("fan-out task counters not published")
	}
	if s, ok := snap.Get("dcrm_timing_kernels_total"); !ok || s.Value == 0 {
		t.Errorf("timing engine counters not published: %+v", s)
	}
}

// TestProgressEvents asserts the progress stream is serialized, counts
// monotonically per phase, and reaches Done == Total for every phase.
func TestProgressEvents(t *testing.T) {
	var events []ProgressEvent
	s, err := NewSuite(SuiteConfig{
		NNTrainSamples: 60,
		Workers:        4,
		Progress:       func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table3DataObjects(s); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	last := make(map[string]ProgressEvent)
	for _, ev := range events {
		if prev, ok := last[ev.Phase]; ok {
			if ev.Done != prev.Done+1 || ev.Total != prev.Total {
				t.Fatalf("non-monotonic progress: %+v after %+v", ev, prev)
			}
		} else if ev.Done != 1 {
			t.Fatalf("phase %q started at Done=%d", ev.Phase, ev.Done)
		}
		last[ev.Phase] = ev
	}
	for phase, ev := range last {
		if ev.Done != ev.Total {
			t.Errorf("phase %q finished at %d/%d", phase, ev.Done, ev.Total)
		}
	}
}

// TestRunTasksError asserts a failing task aborts the fan-out and
// surfaces its error to the caller.
func TestRunTasksError(t *testing.T) {
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	probe := &probeError{"probe"}
	if err := s.runTasks("test: error probe", 16, func(i int) error {
		if i == 3 {
			return probe
		}
		return nil
	}); err != probe {
		t.Fatalf("runTasks error = %v, want the probe error", err)
	}
}

type probeError struct{ msg string }

func (e *probeError) Error() string { return e.msg }
