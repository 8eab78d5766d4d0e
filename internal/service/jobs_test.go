package service

import (
	"context"
	"errors"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"
)

func waitState(t *testing.T, job *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if job.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", job.ID, job.State(), want)
}

// Backpressure: with W workers and a queue of Q, submission W+Q+1
// is rejected with ErrQueueFull rather than blocking or buffering.
func TestManagerQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 2,
		Queue:   2,
		Run: func(ctx context.Context, job *Job) error {
			<-gate
			return nil
		},
	})
	m.Start()
	var jobs []*Job
	for i := 0; i < 2; i++ {
		job, err := m.Submit(JobSpec{Scale: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		waitState(t, job, JobRunning)
	}
	for i := 0; i < 2; i++ {
		job, err := m.Submit(JobSpec{Scale: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if _, err := m.Submit(JobSpec{Scale: "tiny"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("5th submit: err = %v, want ErrQueueFull", err)
	}
	close(gate)
	for _, job := range jobs {
		waitState(t, job, JobDone)
	}
	if got := m.Counts()[JobDone]; got != 4 {
		t.Fatalf("done count = %d, want 4", got)
	}
}

// The worker pool is the concurrency cap: no matter how many jobs are
// queued, at most Workers run at once.
func TestManagerCapsConcurrentJobs(t *testing.T) {
	var running, peak atomic.Int32
	m := NewManager(ManagerConfig{
		Workers: 2,
		Queue:   16,
		Run: func(ctx context.Context, job *Job) error {
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			running.Add(-1)
			return nil
		},
	})
	m.Start()
	var jobs []*Job
	for i := 0; i < 8; i++ {
		job, err := m.Submit(JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		waitState(t, job, JobDone)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent jobs, cap is 2", p)
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	m := NewManager(ManagerConfig{})
	if _, err := m.Submit(JobSpec{Scale: "galactic"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if _, err := m.Submit(JobSpec{FaultProfile: "asteroid"}); err == nil {
		t.Error("unknown fault profile accepted")
	}
	if _, err := m.Submit(JobSpec{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
}

// Graceful shutdown: the in-flight job drains to completion, the queued
// job is cancelled without running, and Submit starts refusing.
func TestShutdownDrainsInFlightAndCancelsQueued(t *testing.T) {
	clock := NewSimClock(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1,
		Queue:   4,
		Clock:   clock,
		Run: func(ctx context.Context, job *Job) error {
			<-release
			return nil
		},
	})
	m.Start()
	inflight, err := m.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, inflight, JobRunning)
	queued, err := m.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		m.Shutdown(time.Hour) // simulated clock: grace never expires on its own
		close(done)
	}()
	// Draining refuses new work immediately.
	deadline := time.Now().Add(10 * time.Second)
	for !m.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("manager never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(JobSpec{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not return after jobs drained")
	}
	if st := inflight.State(); st != JobDone {
		t.Fatalf("in-flight job = %s, want done", st)
	}
	if st := queued.State(); st != JobCanceled {
		t.Fatalf("queued job = %s, want canceled", st)
	}
}

// Grace expiry: a job that outlives the grace period has its context
// cancelled and finishes as canceled — the mechanism the real pipeline
// observes mid-stage.
func TestShutdownGraceExpiryCancelsContext(t *testing.T) {
	clock := NewSimClock(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	m := NewManager(ManagerConfig{
		Workers: 1,
		Clock:   clock,
		Run: func(ctx context.Context, job *Job) error {
			<-ctx.Done()
			return ctx.Err()
		},
	})
	m.Start()
	job, err := m.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, JobRunning)

	done := make(chan struct{})
	go func() {
		m.Shutdown(time.Minute)
		close(done)
	}()
	// Walk the simulated clock forward until the grace waiter (registered
	// inside Shutdown at an unknown real moment) has been passed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-done:
			if st := job.State(); st != JobCanceled {
				t.Fatalf("job = %s, want canceled", st)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("shutdown never cancelled the in-flight job")
		}
		clock.Advance(time.Minute)
		time.Sleep(time.Millisecond)
	}
}

// End-to-end cancellation: a real tiny campaign, cancelled mid-run by a
// zero-grace shutdown, aborts inside the analysis pipeline and reports
// canceled — the daemon-side face of Pipeline.SetContext.
func TestShutdownCancelsRealPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign skipped in -short")
	}
	m := NewManager(ManagerConfig{Workers: 1})
	m.Start()
	job, err := m.Submit(JobSpec{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, JobRunning)
	m.Shutdown(0)
	if st := job.State(); st != JobCanceled {
		t.Fatalf("job = %s, want canceled", st)
	}
	if job.Document() != nil {
		t.Fatal("cancelled job produced a report document")
	}
}

func TestFleetJobProducesFleetDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet campaign skipped in -short")
	}
	m := NewManager(ManagerConfig{Workers: 1})
	m.Start()
	defer m.Shutdown(time.Minute)
	job, err := m.Submit(JobSpec{FleetHomes: 3, FleetSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.State(); st != JobDone {
		t.Fatalf("job = %s (%s), want done", st, job.Err())
	}
	doc := job.Document()
	if doc == nil {
		t.Fatal("fleet job produced no document")
	}
	for _, key := range []string{"fleet", "fleet-exposure", "fleet-slds", "fleet-enc", "fleet-pii"} {
		if doc.Get(key) == nil {
			t.Fatalf("fleet document missing table %q", key)
		}
	}
	if st := job.Status(); st.Fleet != 3 {
		t.Fatalf("status fleet = %d, want 3", st.Fleet)
	}
}

func TestFleetSpecValidation(t *testing.T) {
	m := NewManager(ManagerConfig{})
	if _, err := m.Submit(JobSpec{FleetHomes: -1}); err == nil {
		t.Error("negative fleet size accepted")
	}
	if _, err := m.Submit(JobSpec{FleetHomes: 5, CaptureDir: "/tmp/x"}); err == nil {
		t.Error("fleet+ingest spec accepted")
	}
}

// A finished job's heap is collected before its end is published, so the
// daemon's resident set between jobs follows the jobs still running
// rather than the high-water of the last one.
func TestManagerCollectsFinishedJobHeap(t *testing.T) {
	forced := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	var atRun atomic.Uint64
	m := NewManager(ManagerConfig{
		Run: func(ctx context.Context, job *Job) error {
			atRun.Store(forced())
			return nil
		},
	})
	m.Start()
	job, err := m.Submit(JobSpec{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, JobDone)
	if got := forced(); got <= atRun.Load() {
		t.Fatalf("no collection between the job's run and its end (forced cycles %d -> %d)", atRun.Load(), got)
	}
	m.Shutdown(time.Second)
}
