package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fleet"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// newCoordinator builds the daemon's fleet control plane: campaign specs
// are vetted by the experiment layer at POST time, and the fleet counters
// land in the daemon registry so /metrics shows scheduling live.
func newCoordinator(reg *telemetry.Registry) *fleet.Coordinator {
	return fleet.NewCoordinator(fleet.CoordinatorConfig{
		ValidateSpec: experiments.ValidateSpec,
		Telemetry:    reg,
	})
}

// workerMux is the worker-mode HTTP surface: the worker's own /healthz
// self-report and /metrics exposition, so every fleet member is observable
// the same way the coordinator is.
func workerMux(w *fleet.Worker, reg *telemetry.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, req *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]any{
			"status": "healthy",
			"worker": w.Health(),
		})
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, req *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(rw)
	})
	return mux
}

// runWorker runs the daemon in worker mode (-join): it registers with the
// coordinator, executes campaign shards through the experiment suite, and
// serves its own health and metrics on addr. The suite builds lazily on
// the first shard so the worker joins (and answers /healthz) immediately.
// Cancelling ctx (SIGTERM) drains: the current shard finishes and reports
// before the worker leaves.
func runWorker(ctx context.Context, coordinator, addr string, cfg experiments.SuiteConfig, reg *telemetry.Registry) error {
	cfg.Telemetry = reg
	var (
		suiteOnce sync.Once
		suite     *experiments.Suite
		suiteErr  error
	)
	run := func(ctx context.Context, sh fleet.Shard) (fleet.Counts, string, error) {
		suiteOnce.Do(func() { suite, suiteErr = experiments.NewSuite(cfg) })
		if suiteErr != nil {
			return fleet.Counts{}, "", suiteErr
		}
		return experiments.RunShard(ctx, suite, sh)
	}

	name, _ := os.Hostname()
	if name == "" {
		name = "dcrmd-worker"
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: coordinator,
		Name:        name,
		Addr:        addr,
		Run:         run,
		Telemetry:   reg,
	})
	if err != nil {
		return err
	}

	srv := newHTTPServer(addr, workerMux(w, reg))
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "dcrmd: worker for %s, serving health on %s\n", coordinator, addr)
		errc <- srv.ListenAndServe()
	}()

	workErr := make(chan error, 1)
	go func() { workErr <- w.Run(ctx) }()

	select {
	case err := <-errc:
		// The health listener died; take the worker down with it.
		w.Kill()
		<-workErr
		return err
	case err := <-workErr:
		// Graceful drain finished (or the worker was killed); close the
		// health listener and report the worker's verdict.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if serr := srv.Shutdown(shutdownCtx); serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
}
