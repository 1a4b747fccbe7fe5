package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minDaemonStarts is the fewest daemon starts a serve run times: a start
// takes milliseconds, so many samples keep the median steady.
const minDaemonStarts = 30

// warmSamples is how many repeated (memory-tier) jobs one serve session
// times, so at least 10 fall beyond p95.
const warmSamples = 240

// serveJob is one distinct campaign request of the serve workload.
type serveJob struct {
	kind string
	app  string
	runs int
}

// serveJobs are the cold requests, each small enough that a session fits
// the measurement budget.
var serveJobs = []serveJob{
	{"fig6", "P-BICG", 48},
	{"fig6", "P-MVT", 48},
	{"fig6", "A-Sobel", 48},
	{"fig6", "A-Laplacian", 48},
	{"fig9", "A-Sobel", 2},
	{"fig9", "P-BICG", 2},
}

func (j serveJob) body(seed int64) string {
	return fmt.Sprintf(`{"kind":%q,"apps":[%q],"runs":%d,"seed":%d}`, j.kind, j.app, j.runs, seed)
}

// children tracks started daemons so a fatal error can stop them.
var (
	childMu  sync.Mutex
	children = map[*daemon]bool{}
)

func stopChildren() {
	childMu.Lock()
	ds := make([]*daemon, 0, len(children))
	for d := range children {
		ds = append(ds, d)
	}
	childMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// daemon is one running dcrmd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

// startDaemon execs dcrmd on a free loopback port over storeDir.
func (b *bench) startDaemon(storeDir string, pprof bool) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-store-dir", storeDir}
	if pprof {
		args = append(args, "-pprof")
	}
	cmd := exec.Command(b.dcrmd, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	childMu.Lock()
	children[d] = true
	childMu.Unlock()
	return d, nil
}

// waitReady polls /healthz until it answers 200.
func (d *daemon) waitReady(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("dcrmd exited before answering /healthz")
		default:
		}
		resp, err := c.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("dcrmd did not answer /healthz within 60 s")
}

// stop sends SIGTERM and waits for the process to end (SIGKILL after 15 s).
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	childMu.Lock()
	delete(children, d)
	childMu.Unlock()
}

// jobReply is the subset of a dcrmd job the client reads.
type jobReply struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// runJob POSTs one campaign and polls it to completion, returning the time
// from POST until the job reports done and its result bytes.
func runJob(c *http.Client, url, body string) (float64, json.RawMessage, error) {
	t := time.Now()
	resp, err := c.Post(url+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	var j jobReply
	err = json.NewDecoder(resp.Body).Decode(&j)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return 0, nil, fmt.Errorf("POST %s = %d (%v)", body, resp.StatusCode, err)
	}
	for {
		resp, err := c.Get(url + "/v1/campaigns/" + j.ID)
		if err != nil {
			return 0, nil, err
		}
		j = jobReply{}
		err = json.NewDecoder(resp.Body).Decode(&j)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		switch j.State {
		case "done":
			return since(t), j.Result, nil
		case "failed":
			return 0, nil, fmt.Errorf("job %s failed: %s", body, j.Error)
		}
		// Poll back to back while a job is likely a store hit, then back off
		// so polling does not compete with a cold job for the cores.
		switch el := time.Since(t); {
		case el < 5*time.Millisecond:
		case el < 20*time.Millisecond:
			time.Sleep(100 * time.Microsecond)
		default:
			time.Sleep(2 * time.Millisecond)
		}
		if time.Since(t) > 150*time.Second {
			return 0, nil, fmt.Errorf("job %s did not finish", body)
		}
	}
}

// scrape reads a daemon's /metrics into family totals (label children
// summed; histogram buckets skipped).
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		m[name] += v
	}
	return m, sc.Err()
}

// sessionResult is one serve session's measurements.
type sessionResult struct {
	ready     []float64 // exec until /healthz answers, per daemon
	wall      float64   // cold + warm + restart phases
	coldTime  float64
	coldLat   []float64
	warmLat   []float64
	restart   float64
	runs      int
	rss       float64
	digest    string
	m1, m2    map[string]float64 // traced: /metrics after the warm phase and after the repeats
	healthRTT []float64
	diskBytes float64
	profiles  []string
}

// fetchProfile fetches a CPU profile of a daemon into path in the
// background; the channel yields the fetch's error when it ends.
func fetchProfile(url string, seconds int, path string) <-chan error {
	done := make(chan error, 1)
	go func() {
		c := &http.Client{Timeout: time.Duration(seconds+30) * time.Second}
		resp, err := c.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", url, seconds))
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		f, err := os.Create(path)
		if err != nil {
			done <- err
			return
		}
		_, err = io.Copy(f, resp.Body)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		done <- err
	}()
	return done
}

// serveSession runs one session: cold jobs, warm repeats, a daemon restart
// on the same store directory and the repeats again. With ref set the
// session is traced: daemons serve pprof and profile windows are sized
// from the reference session.
func (b *bench) serveSession(sessionIdx int, ref *sessionResult) (*sessionResult, error) {
	traced := ref != nil
	dir, err := os.MkdirTemp(filepath.Join(b.outDir, ".."), "serve-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer c.CloseIdleConnections()
	r := &sessionResult{}
	parent := fmt.Sprintf("session %d", sessionIdx)
	root := b.spans.begin(parent, "run")
	defer root.end()

	sp := b.spans.begin("dcrmd.start", parent)
	t := time.Now()
	d1, err := b.startDaemon(dir, traced)
	if err != nil {
		return nil, err
	}
	defer d1.stop()
	if err := d1.waitReady(c); err != nil {
		return nil, err
	}
	r.ready = append(r.ready, since(t))
	sp.end()

	var profiled <-chan error
	if traced {
		path := filepath.Join(b.outDir, fmt.Sprintf("serve-seed%d-daemon1.pprof", b.seed))
		profiled = fetchProfile(d1.url, int(ref.coldTime+sum(ref.warmLat))+2, path)
		r.profiles = append(r.profiles, path)
	}

	// Cold: distinct jobs, each computed for the first time.
	cold := make([]json.RawMessage, len(serveJobs))
	t = time.Now()
	for i, j := range serveJobs {
		sp := b.spans.begin("job.cold "+j.kind+" "+j.app, parent)
		lat, res, err := runJob(c, d1.url, j.body(b.seed))
		sp.end()
		if err != nil {
			return nil, err
		}
		cold[i] = res
		r.coldLat = append(r.coldLat, lat)
		r.runs += b.checkJobResult(j, res)
	}
	r.coldTime = since(t)

	// Warm: repeat the jobs round robin; the memory tier serves them.
	for i := 0; i < warmSamples; i++ {
		j := serveJobs[i%len(serveJobs)]
		sp := b.spans.begin("job.warm "+j.kind+" "+j.app, parent)
		lat, res, err := runJob(c, d1.url, j.body(b.seed))
		sp.end()
		if err != nil {
			return nil, err
		}
		r.warmLat = append(r.warmLat, lat)
		b.check(bytes.Equal(res, cold[i%len(serveJobs)]), "warm %s %s result differs from the cold result", j.kind, j.app)
	}
	warmTime := sum(r.warmLat)
	if traced {
		for i := 0; i < 50; i++ {
			t := time.Now()
			resp, err := c.Get(d1.url + "/healthz")
			if err != nil {
				return nil, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			r.healthRTT = append(r.healthRTT, since(t)*1e3)
		}
		if err := <-profiled; err != nil {
			return nil, fmt.Errorf("daemon profile: %w", err)
		}
		if r.m1, err = scrape(c, d1.url); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB(d1.cmd.Process.Pid)
	sp = b.spans.begin("dcrmd.stop", parent)
	d1.stop()
	sp.end()

	// Restart on the same store directory: the disk tier serves repeats.
	sp = b.spans.begin("dcrmd.restart", parent)
	t = time.Now()
	d2, err := b.startDaemon(dir, traced)
	if err != nil {
		return nil, err
	}
	defer d2.stop()
	if err := d2.waitReady(c); err != nil {
		return nil, err
	}
	r.ready = append(r.ready, since(t))
	if traced {
		path := filepath.Join(b.outDir, fmt.Sprintf("serve-seed%d-daemon2.pprof", b.seed))
		profiled = fetchProfile(d2.url, int(ref.restart*2)+2, path)
		r.profiles = append(r.profiles, path)
	}
	for i, j := range serveJobs {
		sp := b.spans.begin("job.restart "+j.kind+" "+j.app, "dcrmd.restart")
		_, res, err := runJob(c, d2.url, j.body(b.seed))
		sp.end()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			r.restart = since(t)
		}
		b.check(bytes.Equal(res, cold[i]), "post-restart %s %s result differs from the cold result", j.kind, j.app)
	}
	restartPhase := since(t)
	sp.end()
	r.wall = r.coldTime + warmTime + restartPhase
	if traced {
		if err := <-profiled; err != nil {
			return nil, fmt.Errorf("daemon profile: %w", err)
		}
		if r.m2, err = scrape(c, d2.url); err != nil {
			return nil, err
		}
	}
	if rss2 := peakRSSMB(d2.cmd.Process.Pid); rss2 > rss {
		rss = rss2
	}
	r.rss = rss
	d2.stop()
	r.diskBytes = dirBytes(dir)
	r.digest = digestOf(cold)
	b.ops(len(serveJobs) + warmSamples + len(serveJobs))
	return r, nil
}

// checkJobResult verifies a campaign job's cells and returns its run count.
func (b *bench) checkJobResult(j serveJob, res json.RawMessage) int {
	var cells []struct {
		App    string
		Result struct {
			Runs, MaskedRuns, SDCRuns, DetectedRuns, CrashedRuns, DUERuns int
		}
	}
	err := json.Unmarshal(res, &cells)
	b.check(err == nil && len(cells) > 0, "%s %s result does not decode: %v", j.kind, j.app, err)
	runs := 0
	for _, c := range cells {
		r := c.Result
		counts := []int{r.MaskedRuns, r.SDCRuns, r.DetectedRuns, r.CrashedRuns, r.DUERuns}
		sum, ok := 0, r.Runs == j.runs && c.App == j.app
		for _, n := range counts {
			ok = ok && n >= 0
			sum += n
		}
		b.check(ok && sum == r.Runs, "%s %s cell: counts %v, runs %d (want %d)", j.kind, j.app, counts, r.Runs, j.runs)
		runs += r.Runs
	}
	return runs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n float64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += float64(info.Size())
		}
		return nil
	})
	return n
}

func runServe(b *bench) error {
	if b.dcrmd == "" {
		return fmt.Errorf("serve needs the dcrmd binary (-dcrmd)")
	}
	b.meta["scale"] = fmt.Sprintf("small; %d distinct fig6/fig9 jobs cold, %d warm repeats, one restart on the same store",
		len(serveJobs), warmSamples)
	if b.traced {
		return b.runServeTraced()
	}
	var setups, walls, rss, cold []float64
	var runs, coldTime float64
	var digest string
	start := time.Now()
	for i := 0; ; i++ {
		itStart := time.Now()
		r, err := b.serveSession(i, nil)
		if err != nil {
			return err
		}
		setups = append(setups, r.ready...)
		walls = append(walls, r.wall)
		runs += float64(r.runs)
		coldTime += r.coldTime
		rss = append(rss, r.rss)
		cold = append(cold, r.coldLat...)
		if digest == "" {
			digest = r.digest
		} else {
			b.check(r.digest == digest, "session %d digest differs", i)
		}
		if since(start)+since(itStart) > b.seconds {
			break
		}
	}
	for len(setups) < minDaemonStarts {
		dir, err := os.MkdirTemp(filepath.Join(b.outDir, ".."), "serve-store-")
		if err != nil {
			return err
		}
		c := &http.Client{}
		t := time.Now()
		d, err := b.startDaemon(dir, false)
		if err != nil {
			return err
		}
		err = d.waitReady(c)
		setups = append(setups, since(t))
		d.stop()
		c.CloseIdleConnections()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	b.checkDigest(digest)
	b.set("setup_s", median(setups))
	b.set("wall_s", median(walls))
	b.set("throughput_per_s", runs/coldTime)
	b.set("peak_rss_mb", median(rss))
	b.meta["sessions"] = len(walls)
	b.meta["setups"] = setups
	b.meta["walls"] = walls
	b.meta["job_cold_p50_s"] = median(cold)
	return nil
}

// runServeTraced runs one untraced reference session and one traced
// session whose daemons are profiled and scraped.
func (b *bench) runServeTraced() error {
	ref, err := b.serveSession(0, nil)
	if err != nil {
		return err
	}
	r, err := b.serveSession(1, ref)
	if err != nil {
		return err
	}
	b.check(r.digest == ref.digest, "traced session digest differs from the untraced session")
	b.checkDigest(ref.digest)
	b.set("trace.overhead_frac", r.wall/ref.wall-1)
	b.set("dcrmd.ready_s", median(r.ready))
	b.set("dcrmd.healthz_rtt_ms", median(r.healthRTT))
	b.set("dcrmd.job_cold_p50_s", median(r.coldLat))
	b.set("dcrmd.job_warm_p50_ms", quantile(r.warmLat, 0.5)*1e3)
	b.set("dcrmd.job_warm_p95_ms", quantile(r.warmLat, 0.95)*1e3)
	b.set("dcrmd.restart_s", r.restart)
	b.set("store.disk_bytes", r.diskBytes)
	b.storeHits(r.m1)
	if d := r.m2["dcrm_store_disk_hits_total"] + r.m2["dcrm_store_disk_misses_total"]; d > 0 {
		b.set("store.disk_hit_frac", r.m2["dcrm_store_disk_hits_total"]/d)
	}
	if d := r.m2["dcrm_artifact_requests_total"]; d > 0 {
		b.set("experiments.artifact_computed_frac", r.m2["dcrm_artifact_computed_total"]/d)
	}
	b.campaignRatios(r.m1)
	if err := b.attributeCPU(r.profiles, filepath.Join(b.outDir, "serve-cpu-top20.txt")); err != nil {
		return err
	}
	notTiming(b, "serve")
	for _, m := range []string{"nn.train_s", "kernels.build_s", "profile.collect_s", "simt.golden_run_ms"} {
		b.notApplicable(m, "the daemon builds its suite inside the first job; see dcrmd.job_cold_p50_s")
	}
	for _, m := range perLayer {
		switch {
		case strings.HasPrefix(m.name, "mem."), strings.HasPrefix(m.name, "core."),
			m.name == "fault.inject_us", m.name == "fault.classify_us", m.name == "simt.run_ms",
			m.name == "experiments.batch_us_per_run", m.name == "probe.parity_runs",
			strings.HasPrefix(m.name, "experiments.artifact_build_s"), m.name == "timing.missweights_s":
			b.notApplicable(m.name, "the per-stage probe runs in-process on the campaign and resilience workloads")
		case strings.HasPrefix(m.name, "runtime."), m.name == "experiments.pool_busy_frac",
			m.name == "experiments.task_max_s":
			b.notApplicable(m.name, "the daemon's runtime and pool are not observable from the client")
		case m.name == "experiments.fig9_sdc_drop_gap_pp":
			b.notApplicable(m.name, "serve jobs cover two apps; the gap is measured on resilience")
		}
	}
	return nil
}
