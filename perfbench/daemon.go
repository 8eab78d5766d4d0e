package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// daemonClients closed-loop clients share the daemon; each sends its
	// next request only after the previous job's report and metrics
	// scrape came back. Capped at the core count.
	daemonClients = 2
	// daemonMaxJobs is moniotrd's -max-jobs: both clients' jobs run at
	// once, each with one analysis worker per core.
	daemonMaxJobs = 2
	// fleetHomes sizes the fleet job so that it takes about as long as
	// the upload job: with the two kinds alternating, the median job
	// would otherwise fall in the gap between two latency modes.
	fleetHomes = 12
	// uploadStride keeps every uploadStride-th device of each lab in the
	// upload tree.
	uploadStride = 2
	pollEvery    = 10 * time.Millisecond
)

// daemon is a running moniotrd child.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// startDaemon launches moniotrd on an ephemeral loopback port and waits
// until it answers /healthz.
func startDaemon(b *bench, work string) (*daemon, error) {
	portFile := filepath.Join(work, "port")
	os.Remove(portFile)
	log, err := os.Create(filepath.Join(work, "moniotrd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.moniotrd, "-addr", "127.0.0.1:0", "-port-file", portFile,
		"-max-jobs", fmt.Sprint(daemonMaxJobs), "-data", filepath.Join(work, "spool"))
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start moniotrd: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			log.Close()
			return nil, fmt.Errorf("moniotrd exited during start-up: %v (log in %s)", cmd.ProcessState, log.Name())
		case <-time.After(5 * time.Millisecond):
		}
		port, err := os.ReadFile(portFile)
		if err != nil || len(bytes.TrimSpace(port)) == 0 {
			continue
		}
		d.base = "http://127.0.0.1:" + strings.TrimSpace(string(port))
		if resp, err := http.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.stop()
	return nil, fmt.Errorf("moniotrd did not become healthy within 30s")
}

// stop sends SIGTERM, lets the daemon drain, and waits for it to exit.
func (d *daemon) stop() *os.ProcessState {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	return d.cmd.ProcessState
}

// buildUpload exports the seeded upload campaign into dir, prunes it and
// returns it as a tar archive.
func buildUpload(b *bench, seed int64, dir string) ([]byte, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if _, _, err := b.child("-kind", "export", "-config", "upload", "-seed", fmt.Sprint(seed), "-dir", dir); err != nil {
		return nil, err
	}
	if err := pruneUpload(dir); err != nil {
		return nil, err
	}
	return tarTree(dir)
}

// pruneUpload keeps every uploadStride-th device of each lab.
func pruneUpload(dir string) error {
	for _, leg := range []string{"controlled", "idle"} {
		labs, err := os.ReadDir(filepath.Join(dir, leg))
		if err != nil {
			return err
		}
		for _, lab := range labs {
			devs, err := os.ReadDir(filepath.Join(dir, leg, lab.Name()))
			if err != nil {
				return err
			}
			for i, dev := range devs {
				if i%uploadStride != 0 {
					if err := os.RemoveAll(filepath.Join(dir, leg, lab.Name(), dev.Name())); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// tarTree archives the regular files under dir with sorted entries and
// fixed metadata, so the archive's bytes depend on the files alone.
func tarTree(dir string) ([]byte, error) {
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			names = append(names, path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return nil, err
		}
		hdr := &tar.Header{Name: filepath.ToSlash(rel), Mode: 0o644, Size: int64(len(data)),
			ModTime: time.Unix(0, 0), Typeflag: tar.TypeReg, Format: tar.FormatPAX}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, err
		}
		if _, err := tw.Write(data); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jobKind is one of the two request kinds the clients alternate between.
type jobKind struct {
	name   string // "ingest" or "fleet", as in service.run_s.<name>
	digest string // reference report digest
	exps   int    // experiments the job analyses (upload jobs only)
	bytes  int64  // capture bytes the job analyses (upload jobs only)
	submit func(c *http.Client, base string) (*http.Response, error)
}

// cycle is one client request from submission to metrics scrape.
type cycle struct {
	kind                         *jobKind
	err                          error
	start, submittedResp         time.Time
	submitted, started, finished time.Time // daemon-side job timestamps
	reportStart, reportEnd       time.Time
	metricsEnd                   time.Time
	rssMB                        float64 // daemon's resident set after the scrape
}

type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Error     string `json:"error"`
	Submitted string `json:"submitted"`
	Started   string `json:"started"`
	Finished  string `json:"finished"`
}

// runCycle submits one job, waits for it, fetches and checks its report
// and scrapes /metrics.
func runCycle(c *http.Client, d *daemon, k *jobKind) (cy cycle) {
	base := d.base
	cy.kind = k
	cy.start = time.Now()
	fail := func(err error) cycle { cy.err = err; return cy }
	resp, err := k.submit(c, base)
	if err != nil {
		return fail(err)
	}
	var st jobStatus
	err = decodeStatus(resp, http.StatusAccepted, &st)
	cy.submittedResp = time.Now()
	if err != nil {
		return fail(err)
	}
	for st.State == "queued" || st.State == "running" {
		time.Sleep(pollEvery)
		resp, err := c.Get(base + "/api/jobs/" + st.ID)
		if err != nil {
			return fail(err)
		}
		if err := decodeStatus(resp, http.StatusOK, &st); err != nil {
			return fail(err)
		}
	}
	if st.State != "done" {
		return fail(fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
	}
	for _, ts := range []struct {
		s string
		t *time.Time
	}{{st.Submitted, &cy.submitted}, {st.Started, &cy.started}, {st.Finished, &cy.finished}} {
		if *ts.t, err = time.Parse(time.RFC3339Nano, ts.s); err != nil {
			return fail(fmt.Errorf("job %s: %w", st.ID, err))
		}
	}
	cy.reportStart = time.Now()
	body, err := fetch(c, base+"/api/jobs/"+st.ID+"/report")
	cy.reportEnd = time.Now()
	if err != nil {
		return fail(err)
	}
	if got := digestBytes(body); got != k.digest {
		return fail(fmt.Errorf("job %s: %s report digest %s, reference %s", st.ID, k.name, got, k.digest))
	}
	if _, err := fetch(c, base+"/metrics"); err != nil {
		return fail(err)
	}
	cy.metricsEnd = time.Now()
	cy.rssMB, cy.err = d.rssMB()
	return cy
}

// rssMB reads the daemon's current resident set size from
// /proc/<pid>/status.
func (d *daemon) rssMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", d.cmd.Process.Pid)
}

func decodeStatus(resp *http.Response, want int, st *jobStatus) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: HTTP %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, st)
}

func fetch(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, nil
}

// metricsSnapshot is the part of the daemon's /metrics body the
// benchmark reads.
type metricsSnapshot struct {
	Spans []json.RawMessage `json:"spans"`
}

func runDaemonWorkload(b *bench, seed int64, seconds time.Duration, trace bool) (*result, error) {
	res := newResult()
	tree := filepath.Join(b.work, "upload")
	var (
		tarball []byte
		d       *daemon
		err     error
	)
	err = repeatSetup(res, func() error {
		if d != nil {
			d.stop()
		}
		if tarball, err = buildUpload(b, seed, tree); err != nil {
			return err
		}
		d, err = startDaemon(b, b.work)
		return err
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	upload := &jobKind{name: "ingest", submit: func(c *http.Client, base string) (*http.Response, error) {
		return c.Post(base+"/api/upload?stream=1", "application/x-tar", bytes.NewReader(tarball))
	}}
	fleetSpec := fmt.Sprintf(`{"fleet": %d, "fleet_seed": %d}`, fleetHomes, seed)
	fleetJob := &jobKind{name: "fleet", submit: func(c *http.Client, base string) (*http.Response, error) {
		return c.Post(base+"/api/jobs", "application/json", strings.NewReader(fleetSpec))
	}}
	out := filepath.Join(b.work, "ref.json")
	ref, _, err := b.child("-kind", "ingest", "-dir", tree, "-workers", "1", "-out", out)
	if err != nil {
		return nil, err
	}
	if upload.digest, err = digestFile(out); err != nil {
		return nil, err
	}
	upload.exps, upload.bytes = ref.Experiments, ref.Bytes
	if _, _, err = b.child("-kind", "fleet", "-seed", fmt.Sprint(seed), "-homes", fmt.Sprint(fleetHomes), "-workers", "1", "-out", out); err != nil {
		return nil, err
	}
	if fleetJob.digest, err = digestFile(out); err != nil {
		return nil, err
	}

	client := &http.Client{Timeout: 120 * time.Second}
	before, err := fetch(client, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	kinds := []*jobKind{upload, fleetJob}
	clients := min(daemonClients, max(1, b.nproc))
	var (
		mu     sync.Mutex
		cycles []cycle
		rounds []float64
		wg     sync.WaitGroup
	)
	// A client's round sends one request of each kind in turn, upload
	// first. wall_s is the median round: the two kinds take different
	// times, so the median single request would jump between their two
	// latency modes from run to run.
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < seconds {
				roundStart, ok := time.Now(), true
				for i := range kinds {
					cy := runCycle(client, d, kinds[i])
					ok = ok && cy.err == nil
					mu.Lock()
					cycles = append(cycles, cy)
					mu.Unlock()
				}
				if ok {
					mu.Lock()
					rounds = append(rounds, time.Since(roundStart).Seconds())
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	after, err := fetch(client, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(after, &snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	stopped = true
	ps := d.stop()
	if !ps.Success() {
		return nil, fmt.Errorf("moniotrd exited with %v on SIGTERM (log in %s)", ps, d.log.Name())
	}

	sort.Slice(cycles, func(i, j int) bool { return cycles[i].start.Before(cycles[j].start) })
	tr := NewTracer()
	var (
		done       int
		exps       int
		capBytes   int64
		serviceRun = map[string][]float64{}
	)
	for _, cy := range cycles {
		res.attempted++
		if cy.err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: daemon-mixed: %v\n", cy.err)
			continue
		}
		done++
		exps += cy.kind.exps
		capBytes += cy.kind.bytes
		res.add("job_s", cy.finished.Sub(cy.submitted).Seconds())
		res.add("rss_sample", cy.rssMB)
		submit := "service.submit"
		if cy.kind == upload {
			submit = "service.upload"
			res.add("service.upload_s", cy.submittedResp.Sub(cy.start).Seconds())
		}
		res.add("service.queue_wait_s", cy.started.Sub(cy.submitted).Seconds())
		res.add("service.report_fetch_s", cy.reportEnd.Sub(cy.reportStart).Seconds())
		res.add("service.metrics_fetch_s", cy.metricsEnd.Sub(cy.reportEnd).Seconds())
		serviceRun[cy.kind.name] = append(serviceRun[cy.kind.name], cy.finished.Sub(cy.started).Seconds())
		root := tr.Add("cycle", cy.start, cy.metricsEnd, -1)
		tr.Add(submit, cy.start, cy.submittedResp, root)
		tr.Add("service.queue_wait", cy.submitted, cy.started, root)
		tr.Add("service.run."+cy.kind.name, cy.started, cy.finished, root)
		tr.Add("service.report_fetch", cy.reportStart, cy.reportEnd, root)
		tr.Add("service.metrics_fetch", cy.reportEnd, cy.metricsEnd, root)
	}
	res.samples["wall_s"] = rounds
	res.correct = res.failed == 0 && done > 0
	cpu := (ps.UserTime() + ps.SystemTime()).Seconds()
	if done > 0 {
		res.set("mb_per_s", float64(capBytes)/1e6/window)
		res.set("experiments_per_s", float64(exps)/window)
		res.set("cpu_s", cpu/float64(done))
		res.set("jobs_per_s", float64(done)/window)
		res.layers["service.metrics_bytes_per_job"] = float64(len(after)-len(before)) / float64(done)
	}
	// The daemon's lifetime peak RSS depends on whether garbage
	// collection happens to lag behind two overlapping jobs, which does
	// not repeat from run to run. Its resident set sampled after every
	// job does, so the median sample is the reported figure.
	res.set("peak_rss_mb", median(res.samples["rss_sample"]))
	res.note("peak_rss_mb", fmt.Sprintf("median of %d samples after jobs; lifetime peak %.1f MB", len(res.samples["rss_sample"]), maxRSSMB(ps)))
	res.layers["obs.spans"] = float64(len(snap.Spans))
	for name, xs := range serviceRun {
		res.layers["service.run_s."+name] = median(xs)
	}
	for _, name := range []string{"service.upload_s", "service.queue_wait_s", "service.report_fetch_s", "service.metrics_fetch_s"} {
		res.layers[name] = median(res.samples[name])
	}
	if trace {
		var cycleTotal time.Duration
		for _, s := range tr.spans {
			if s.Parent < 0 {
				cycleTotal += time.Duration(s.End - s.Start)
			}
		}
		if cycleTotal > 0 {
			res.layers["trace.coverage"] = 1 - SelfTimes(tr.spans)["cycle"].Self.Seconds()/cycleTotal.Seconds()
			res.layers["trace.wall_s"] = cycleTotal.Seconds()
		}
		if err := tr.WriteFile(b.spansPath()); err != nil {
			return nil, err
		}
	}
	res.note("wall_s", fmt.Sprintf("rounds of %d requests, %d clients", len(kinds), clients))
	return res, nil
}
