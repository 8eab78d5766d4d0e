// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload through the real program — the public intliot
// API in child processes, or the moniotrd daemon over HTTP — checks
// every report against a serial reference, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; with -trace 1 they are the
// per-layer split from a traced run. See README.md.
//
// Run it from the repository root through perfbench/run.sh, which
// builds this binary and moniotrd first:
//
//	bash perfbench/run.sh --workload ingest-idle --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// Paths relative to the repository root, where the benchmark runs.
const (
	buildDir       = ".bench_build" // run.sh's build output; scratch files go here too
	trajectoryFile = "perfbench/trajectory.jsonl"
)

// A run sets its workload up at least minSetupReps times, and more while
// the set-ups have taken under minSetupTime, up to maxSetupReps; setup_s
// is the median.
const (
	minSetupReps = 3
	maxSetupReps = 25
	minSetupTime = time.Second
)

// repeatSetup times setup repeatedly into res's setup_s samples. Dirty
// pages are flushed before each timed set-up and after the last, so one
// set-up's disk writes do not slow the next step.
func repeatSetup(res *result, setup func() error) error {
	var spent time.Duration
	for i := 0; i < minSetupReps || (spent < minSetupTime && i < maxSetupReps); i++ {
		syscall.Sync()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		d := time.Since(t0)
		spent += d
		res.add("setup_s", d.Seconds())
	}
	syscall.Sync()
	return nil
}

// workload describes one benchmark workload. heldOut is a second seed
// kept out of development runs, for checking a claim on unseen inputs.
type workload struct {
	name        string
	defaultSeed int64
	heldOut     int64
	run         func(b *bench, seed int64, seconds time.Duration, trace bool) (*result, error)
}

var workloads = []workload{
	{"synth-full", 1, 7919, runSynthFull},
	{"ingest-idle", 1, 7919, runIngestIdle},
	{"daemon-mixed", 1, 7919, runDaemonWorkload},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench carries a run's paths.
type bench struct {
	self     string // this binary, re-executed for child work
	moniotrd string
	work     string // scratch directory for this run, removed at exit
	name     string // workload
	seed     int64
	nproc    int
}

func (b *bench) spansPath() string {
	return filepath.Join(filepath.Dir(b.work), fmt.Sprintf("spans-%s-%d.jsonl", b.name, b.seed))
}

// proc is what the parent measures about a finished child process.
type proc struct {
	wall, cpu time.Duration
	rssMB     float64
}

// child runs "perfbench child <args>" and decodes its result line.
func (b *bench) child(args ...string) (childResult, proc, error) {
	var res childResult
	cmd := exec.Command(b.self, append([]string{"child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	pr := proc{wall: time.Since(t0)}
	if err != nil {
		return res, pr, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	ps := cmd.ProcessState
	pr.cpu = ps.UserTime() + ps.SystemTime()
	pr.rssMB = maxRSSMB(ps)
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, pr, fmt.Errorf("child %s: decode result: %w", strings.Join(args, " "), err)
	}
	return res, pr, nil
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digestFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return digestBytes(data), nil
}

// result collects one run's measurements.
type result struct {
	correct           bool
	attempted, failed int
	samples           map[string][]float64 // timed quantities, one sample per pass or job
	fixed             map[string]float64   // end-to-end values computed once per run
	layers            map[string]float64
	notes             map[string]string
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, fixed: map[string]float64{},
		layers: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }
func (r *result) set(name string, v float64) { r.fixed[name] = v }
func (r *result) note(name, s string)        { r.notes[name] = s }

// summary is one end-to-end metric: its value, the quartiles of the
// samples it came from and their count.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

// endToEndValues reduces the samples to the end-to-end metrics. A job
// is one pass on the batch workloads and one server job on the daemon.
func (r *result) endToEndValues() map[string]summary {
	out := make(map[string]summary)
	for _, m := range endToEnd {
		key := m.Name
		switch key {
		case "job_p50_s", "job_tail_s":
			key = "job_s"
		}
		xs := r.samples[key]
		q1, med, q3 := quartiles(xs)
		s := summary{Value: med, Q1: q1, Q3: q3, N: len(xs), Unit: m.Unit}
		if v, ok := r.fixed[m.Name]; ok {
			s = summary{Value: v, Q1: v, Q3: v, N: 1, Unit: m.Unit}
		}
		if m.Name == "job_tail_s" {
			v, pct, ok := tail(xs)
			s.Value = v
			if ok {
				r.note("job_tail_s", fmt.Sprintf("p%.1f of %d jobs", pct, len(xs)))
			} else {
				r.note("job_tail_s", fmt.Sprintf("max of %d jobs (too few for a percentile above the median with %d beyond)", len(xs), tailBeyond))
			}
		}
		out[m.Name] = s
	}
	return out
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := runChild(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: synth-full, ingest-idle or daemon-mixed")
	seed := flag.Int64("seed", 0, "workload seed (0 = the workload's default seed)")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer split")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seed == 0 {
		*seed = w.defaultSeed
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{self: self, moniotrd: filepath.Join(buildDir, "bin", "moniotrd"), work: work, name: w.name, seed: *seed, nproc: runtime.NumCPU()}

	trace := *traceFlag == 1
	res, err := w.run(b, *seed, time.Duration(*seconds)*time.Second, trace)
	if err != nil {
		return err
	}

	e2e := res.endToEndValues()
	out := outcome{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	fmt.Printf("perfbench %s seed=%d (held-out seed %d) seconds=%d trace=%d GOMAXPROCS=%d nproc=%d\n",
		w.name, *seed, w.heldOut, *seconds, *traceFlag, runtime.GOMAXPROCS(0), b.nproc)
	fmt.Printf("error_rate %.4f (%d failed of %d attempted)\n", errorRate(res), res.failed, res.attempted)
	if trace {
		for _, m := range perLayer {
			v := res.layers[m.Name]
			fmt.Printf("%-36s %14.6f %s\n", m.Name, v, m.Unit)
			out.Metrics[m.Name] = metricJSON{v, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			s := e2e[m.Name]
			fmt.Printf("%-20s %12.6f %-5s q1=%.6f q3=%.6f n=%d %s\n", m.Name, s.Value, m.Unit, s.Q1, s.Q3, s.N, res.notes[m.Name])
			out.Metrics[m.Name] = metricJSON{s.Value, m.Unit}
		}
		for _, name := range []string{"service.metrics_bytes_per_job", "obs.spans"} {
			if v, ok := res.layers[name]; ok {
				fmt.Printf("%-20s %12.1f count\n", name, v)
			}
		}
	}
	if err := appendTrajectory(trajectoryFile, b, *seconds, trace, res, e2e); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func errorRate(r *result) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func runSynthFull(b *bench, seed int64, seconds time.Duration, trace bool) (*result, error) {
	return runBatch(b, seed, seconds, trace, "synth", "", func() error {
		_, _, err := b.child("-kind", "setup-synth", "-seed", fmt.Sprint(seed))
		return err
	})
}

func runIngestIdle(b *bench, seed int64, seconds time.Duration, trace bool) (*result, error) {
	tree := filepath.Join(b.work, "tree")
	return runBatch(b, seed, seconds, trace, "ingest", tree, func() error {
		if err := os.RemoveAll(tree); err != nil {
			return err
		}
		_, _, err := b.child("-kind", "export", "-config", "idle", "-seed", fmt.Sprint(seed), "-dir", tree)
		return err
	})
}

// runBatch is the batch workloads' run: set up repeatedly, compute
// the serial reference report, then either time passes with default
// workers until the measuring time is spent, or run the traced replica
// once and check its report against the reference.
func runBatch(b *bench, seed int64, seconds time.Duration, trace bool, kind, dir string, setup func() error) (*result, error) {
	res := newResult()
	if err := repeatSetup(res, setup); err != nil {
		return nil, err
	}
	args := func(kind string, workers int, out string) []string {
		return []string{"-kind", kind, "-seed", fmt.Sprint(seed), "-dir", dir, "-workers", fmt.Sprint(workers), "-out", out}
	}
	refOut := filepath.Join(b.work, "ref.json")
	ref, _, err := b.child(args(kind, 1, refOut)...)
	if err != nil {
		return nil, err
	}
	refDigest, err := digestFile(refOut)
	if err != nil {
		return nil, err
	}
	check := func(out string, err error) bool {
		res.attempted++
		if err == nil {
			var got string
			if got, err = digestFile(out); err == nil && got != refDigest {
				err = fmt.Errorf("report %s differs from the serial reference", out)
			}
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
			return false
		}
		return true
	}

	if trace {
		out := filepath.Join(b.work, "traced.json")
		tr, _, err := b.child(append(args("traced-"+kind, 1, out), "-spans", b.spansPath())...)
		if check(out, err) {
			res.layers = tr.Layers
			res.layers["trace.overhead"] = tr.JobSeconds/ref.JobSeconds - 1
		}
		res.correct = res.failed == 0
		return res, nil
	}

	out := filepath.Join(b.work, "pass.json")
	start := time.Now()
	var busy time.Duration
	for time.Since(start) < seconds {
		if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		pass, pr, err := b.child(args(kind, 0, out)...)
		if !check(out, err) {
			continue
		}
		busy += pr.wall
		res.add("wall_s", pr.wall.Seconds())
		res.add("job_s", pass.JobSeconds)
		res.add("cpu_s", pr.cpu.Seconds())
		res.add("peak_rss_mb", pr.rssMB)
		res.add("mb_per_s", float64(pass.Bytes)/1e6/pr.wall.Seconds())
		res.add("experiments_per_s", float64(pass.Experiments)/pr.wall.Seconds())
	}
	if n := len(res.samples["wall_s"]); n > 0 {
		res.set("jobs_per_s", float64(n)/busy.Seconds())
	}
	res.correct = res.failed == 0 && len(res.samples["wall_s"]) > 0
	return res, nil
}
