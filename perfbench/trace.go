package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/ecc"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// spanRecorder keeps host-time spans in memory for the traced run and
// writes them out as a Chrome trace when the run ends.
type spanRecorder struct {
	tr *telemetry.Trace
	t0 time.Time
	mu sync.Mutex
	n  int
}

func newSpanRecorder() *spanRecorder {
	r := &spanRecorder{tr: telemetry.NewTrace(), t0: time.Now()}
	r.tr.NameProcess(1, "perfbench")
	r.tr.NameThread(1, 1, "benchmark")
	return r
}

// span is one open host-time interval.
type span struct {
	rec          *spanRecorder
	name, parent string
	start        time.Time
}

// begin opens a span; it is a no-op on an untraced run (nil recorder).
func (r *spanRecorder) begin(name, parent string) *span {
	if r == nil {
		return nil
	}
	return &span{rec: r, name: name, parent: parent, start: time.Now()}
}

// end closes the span and records it with its start, end and parent.
func (s *span) end() {
	if s == nil {
		return
	}
	end := time.Now()
	r := s.rec
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
	ts := s.start.Sub(r.t0).Microseconds()
	dur := end.Sub(s.start).Microseconds()
	if dur < 1 {
		dur = 1
	}
	r.tr.Span(1, 1, s.name, ts, dur, map[string]any{
		"parent": s.parent, "start_us": ts, "end_us": ts + dur,
	})
}

// finishTrace writes the recorded spans next to the run's other outputs.
func (b *bench) finishTrace() {
	path := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-trace.json", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := b.spans.tr.WriteJSON(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	b.meta["trace_file"] = path
	b.meta["spans"] = b.spans.n
}

// cpuProfile records a CPU profile of this process into path.
func cpuProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// runtimeSample reads the Go runtime counters behind runtime.alloc_mb and
// runtime.gc_cpu_frac.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// recordRuntime reports the allocation volume and GC CPU share between two
// samples.
func (b *bench) recordRuntime(before, after runtimeSample) {
	b.set("runtime.alloc_mb", (after.allocBytes-before.allocBytes)/(1<<20))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		b.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
}

// secdedSink keeps the reference loop's results live.
var secdedSink uint32

// secdedNsPerWord times SECDED encode+decode over a fixed buffer: the
// in-run host-speed reference that lets ratios survive a change of host.
func secdedNsPerWord() float64 {
	const words = 1 << 14
	var samples []float64
	for rep := 0; rep < 7; rep++ {
		start := time.Now()
		for i := uint32(0); i < words; i++ {
			d, _ := ecc.Decode(ecc.Encode(i * 2654435761))
			secdedSink ^= d
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/words)
	}
	return median(samples)
}
