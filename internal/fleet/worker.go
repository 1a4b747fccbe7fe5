package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// ShardRunner executes one shard: the run-index range [shard.Start,
// shard.End) of the campaign shard.Spec describes. Implementations must be
// deterministic in the spec and range (the fabric's byte-identity contract
// rests on it) and should honour ctx so a killed worker stops promptly.
// The returned store key, when non-empty, names where the result was
// published in the content-addressed store.
type ShardRunner func(ctx context.Context, shard Shard) (Counts, string, error)

// WorkerConfig wires a worker to its coordinator.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:8080").
	Coordinator string
	// Name labels the worker in the coordinator's registry.
	Name string
	// Addr, when non-empty, is the worker's own HTTP address (health and
	// metrics), recorded by the coordinator for operators.
	Addr string
	// Run executes shards. Required.
	Run ShardRunner
	// Client is the HTTP client used for all coordinator calls
	// (nil = a client with a 30 s timeout).
	Client *http.Client
	// IdleWait bounds how long the worker sleeps when the coordinator has
	// no work, if the coordinator does not say (default 500 ms).
	IdleWait time.Duration
	// Telemetry, when non-nil, receives the worker-side shard counters.
	Telemetry *telemetry.Registry
}

// WorkerHealth is a worker's self-report, served by the daemon's
// worker-mode /healthz.
type WorkerHealth struct {
	// ID is the coordinator-assigned identity ("" before a join).
	ID string `json:"id"`
	// Coordinator is the control plane URL.
	Coordinator string `json:"coordinator"`
	// ShardsDone and ShardsFailed count this worker's completed and failed
	// shard executions.
	ShardsDone   int `json:"shards_done"`
	ShardsFailed int `json:"shards_failed"`
	// Current is the shard being executed right now, nil when idle.
	Current *Shard `json:"current,omitempty"`
	// Draining reports that shutdown started and the worker is finishing
	// its current shard before leaving.
	Draining bool `json:"draining"`
}

// Worker is the fleet's execution side: it joins a coordinator, polls for
// shards, executes them through the configured ShardRunner, and streams
// results back. One Worker runs one shard at a time — process-level
// parallelism comes from running more workers.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	// hardCtx aborts in-flight shard execution (Kill); the Run ctx only
	// stops new work (graceful drain).
	hardCtx  context.Context
	hardStop context.CancelFunc

	mu       sync.Mutex
	id       string
	current  *Shard
	done     int
	failed   int
	draining bool

	shardsRun    *telemetry.CounterVec // dcrm_fleet_worker_shards_total{state}
	shardSeconds *telemetry.Histogram
}

// NewWorker builds a worker (no network traffic until Run).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if cfg.Run == nil {
		return nil, fmt.Errorf("fleet: worker needs a shard runner")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.IdleWait <= 0 {
		cfg.IdleWait = 500 * time.Millisecond
	}
	hardCtx, hardStop := context.WithCancel(context.Background())
	w := &Worker{cfg: cfg, client: cfg.Client, hardCtx: hardCtx, hardStop: hardStop}
	if reg := cfg.Telemetry; reg != nil {
		w.shardsRun = reg.CounterVec("dcrm_fleet_worker_shards_total",
			"Shards this worker executed, by final state.", "state")
		w.shardSeconds = reg.Histogram("dcrm_fleet_worker_shard_seconds",
			"Shard execution durations in seconds.", telemetry.DefBuckets)
	}
	return w, nil
}

// Kill aborts the worker immediately: the in-flight shard's context is
// cancelled and the loop exits without completing it — the test double of
// a crashed host. The coordinator notices through missed heartbeats and
// reassigns the abandoned shard.
func (w *Worker) Kill() { w.hardStop() }

// Health snapshots the worker's self-report.
func (w *Worker) Health() WorkerHealth {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := WorkerHealth{
		ID:           w.id,
		Coordinator:  w.cfg.Coordinator,
		ShardsDone:   w.done,
		ShardsFailed: w.failed,
		Draining:     w.draining,
	}
	if w.current != nil {
		sh := *w.current
		h.Current = &sh
	}
	return h
}

// Run joins the coordinator and processes shards until ctx is cancelled.
// Cancellation is graceful: the worker finishes (drains) its current
// shard, reports the result, and returns nil. Kill aborts instead. A
// coordinator that stops recognizing the worker (restart) triggers a
// rejoin.
func (w *Worker) Run(ctx context.Context) error {
	join, err := w.join()
	if err != nil {
		return err
	}
	heartbeatEvery := time.Duration(join.HeartbeatMillis) * time.Millisecond
	if heartbeatEvery <= 0 {
		heartbeatEvery = 2 * time.Second
	}

	// Heartbeats run on their own goroutine so a long shard never misses
	// the liveness window. They stop when Run returns or Kill fires.
	hbCtx, hbStop := context.WithCancel(w.hardCtx)
	defer hbStop()
	go w.heartbeatLoop(hbCtx, heartbeatEvery)

	// Surface the drain window on Health: graceful cancellation flips the
	// flag while the current shard (if any) runs to completion.
	go func() {
		select {
		case <-ctx.Done():
			w.mu.Lock()
			w.draining = true
			w.mu.Unlock()
		case <-hbCtx.Done():
		}
	}()

	for {
		select {
		case <-w.hardCtx.Done():
			return w.hardCtx.Err()
		default:
		}
		if ctx.Err() != nil {
			// Graceful shutdown: no current shard is in flight at the top of
			// the loop, so there is nothing to drain — just leave.
			return nil
		}
		resp, err := w.poll()
		if err != nil {
			// A coordinator that no longer recognizes this worker (it
			// restarted) rejects the poll; rejoining restores an identity.
			// Transport errors back off before retrying.
			if _, jerr := w.join(); jerr != nil {
				w.sleep(ctx, w.cfg.IdleWait)
			}
			continue
		}
		if resp.Shard == nil {
			wait := time.Duration(resp.WaitMillis) * time.Millisecond
			if wait <= 0 {
				wait = w.cfg.IdleWait
			}
			w.sleep(ctx, wait)
			continue
		}
		// Execute under hardCtx (not ctx): a graceful shutdown arriving
		// mid-shard lets the shard drain to completion before the loop
		// exits above.
		w.runShard(*resp.Shard)
	}
}

// runShard executes one shard and reports its result.
func (w *Worker) runShard(sh Shard) {
	w.mu.Lock()
	w.current = &sh
	w.mu.Unlock()
	start := time.Now()
	counts, storeKey, err := w.cfg.Run(w.hardCtx, sh)
	elapsed := time.Since(start)

	w.mu.Lock()
	w.current = nil
	if err != nil {
		w.failed++
	} else {
		w.done++
	}
	w.mu.Unlock()

	if w.shardSeconds != nil {
		w.shardSeconds.Observe(elapsed.Seconds())
	}
	if w.hardCtx.Err() != nil {
		// Killed mid-shard: report nothing, like a crashed host. The
		// coordinator reassigns the shard after the liveness window.
		return
	}
	req := CompleteRequest{
		WorkerID: w.workerID(),
		JobID:    sh.JobID,
		Index:    sh.Index,
		Counts:   counts,
		StoreKey: storeKey,
	}
	state := "done"
	if err != nil {
		req.Err = err.Error()
		state = "failed"
	}
	if w.shardsRun != nil {
		w.shardsRun.With(state).Inc()
	}
	// Completion is best-effort: a lost report is equivalent to a crash
	// right after execution, and the lease/steal machinery re-runs the
	// shard (deterministically, so no result skew).
	_ = w.post("/v1/fleet/complete", req, &struct{}{})
}

// heartbeatLoop reports liveness until its context stops.
func (w *Worker) heartbeatLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var resp HeartbeatResponse
			if err := w.post("/v1/fleet/heartbeat", HeartbeatRequest{WorkerID: w.workerID()}, &resp); err != nil {
				continue
			}
			if !resp.Known {
				// Coordinator restarted: rejoin under a fresh identity.
				w.join()
			}
		}
	}
}

// join registers (or re-registers) with the coordinator.
func (w *Worker) join() (JoinResponse, error) {
	var resp JoinResponse
	err := w.post("/v1/fleet/join", JoinRequest{Name: w.cfg.Name, Addr: w.cfg.Addr}, &resp)
	if err != nil {
		return JoinResponse{}, fmt.Errorf("fleet: join %s: %w", w.cfg.Coordinator, err)
	}
	w.mu.Lock()
	w.id = resp.WorkerID
	w.mu.Unlock()
	return resp, nil
}

// poll asks the coordinator for one shard.
func (w *Worker) poll() (PollResponse, error) {
	var resp PollResponse
	if err := w.post("/v1/fleet/poll", PollRequest{WorkerID: w.workerID()}, &resp); err != nil {
		return PollResponse{}, err
	}
	return resp, nil
}

// workerID reads the current coordinator-assigned identity.
func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// sleep waits for d, cut short by either context; it reports false when a
// shutdown (graceful or hard) interrupted the wait.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-w.hardCtx.Done():
		return false
	}
}

// post is the worker's JSON round trip helper.
func (w *Worker) post(path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(w.hardCtx, http.MethodPost,
		w.cfg.Coordinator+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(out)
}
