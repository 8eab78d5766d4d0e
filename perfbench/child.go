package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	intliot "github.com/neu-sns/intl-iot-go"
	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/fleet"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/report"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// The benchmark runs every piece of program work in a child process of
// its own binary ("perfbench child -kind ..."), so a pass's CPU time and
// peak RSS belong to that pass alone. The child prints one childResult
// as JSON on stdout.

// childResult is what a child reports about the work it did.
type childResult struct {
	Experiments int     `json:"experiments"`
	Bytes       int64   `json:"bytes"`
	JobSeconds  float64 `json:"job_s"` // in-process time from start to report written
	// Layers holds the traced replica's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// synthConfig is the synth-full campaign: every leg of QuickConfig —
// controlled, idle, VPN and the §7.3 user study — at about half its
// repetition counts, so that a serial reference, a traced pass and
// several measured passes fit in one run.
func synthConfig(seed int64) intliot.Config {
	cfg := intliot.QuickConfig()
	cfg.Seed = seed
	cfg.AutomatedReps = 4
	cfg.IdleHours = map[string]float64{"US": 2, "GB": 2, "US->GB": 1, "GB->US": 1}
	cfg.UncontrolledDays = 2
	return cfg
}

// idleConfig is the ingest-idle capture tree: one repetition of each
// controlled experiment and eight idle hours on each of the four legs.
func idleConfig(seed int64) intliot.Config {
	cfg := intliot.QuickConfig()
	cfg.Seed = seed
	cfg.AutomatedReps, cfg.ManualReps, cfg.PowerReps = 1, 1, 1
	cfg.IdleHours = map[string]float64{"US": 8, "GB": 8, "US->GB": 8, "GB->US": 8}
	cfg.UncontrolledDays = 0
	return cfg
}

// uploadConfig is the campaign the daemon's upload tree is cut from.
func uploadConfig(seed int64) intliot.Config {
	cfg := intliot.QuickConfig()
	cfg.Seed = seed
	cfg.AutomatedReps, cfg.ManualReps, cfg.PowerReps = 1, 1, 1
	cfg.IdleHours = map[string]float64{"US": 1, "GB": 1}
	cfg.VPN = false
	cfg.UncontrolledDays = 0
	return cfg
}

// ingestOptions opens capture trees the way moniotr -ingest -stream
// does. The serial reference forces the classic index-and-replay shape,
// so it takes the same path as the traced replica.
func ingestOptions(workers int) ingest.Options {
	return ingest.Options{Stream: true, Workers: workers, TwoPass: workers == 1}
}

func runChild(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	kind := fs.String("kind", "", "synth, ingest, fleet, setup-synth, export, traced-synth or traced-ingest")
	seed := fs.Int64("seed", 1, "workload seed")
	dir := fs.String("dir", "", "capture tree to read or write")
	workers := fs.Int("workers", 0, "analysis and synthesis workers (0 = one per core)")
	homes := fs.Int("homes", 0, "fleet size")
	config := fs.String("config", "idle", "export: idle or upload")
	out := fs.String("out", "", "report file")
	spans := fs.String("spans", "", "traced: span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		res childResult
		err error
	)
	start := time.Now()
	switch *kind {
	case "synth":
		res, err = synthPass(*seed, *workers, *out)
	case "ingest":
		res, err = ingestPass(*dir, *workers, *out)
	case "fleet":
		res, err = fleetPass(*seed, *homes, *workers, *out)
	case "setup-synth":
		_, err = intliot.NewStudy(synthConfig(*seed))
	case "export":
		err = exportTree(*config, *seed, *dir)
	case "traced-synth", "traced-ingest":
		res, err = tracedPass(*kind, *seed, *dir, *out, *spans)
	default:
		err = fmt.Errorf("unknown child kind %q", *kind)
	}
	if err != nil {
		return err
	}
	if res.JobSeconds == 0 {
		res.JobSeconds = time.Since(start).Seconds()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func synthPass(seed int64, workers int, out string) (childResult, error) {
	start := time.Now()
	cfg := synthConfig(seed)
	cfg.Workers = workers
	study, err := intliot.NewStudy(cfg)
	if err != nil {
		return childResult{}, err
	}
	study.SetAnalysisWorkers(workers)
	study.Run()
	if err := study.RunUncontrolled(); err != nil {
		return childResult{}, err
	}
	if _, err := writeReport(out, study.ReportDocument()); err != nil {
		return childResult{}, err
	}
	return studyResult(study, start), nil
}

func ingestPass(dir string, workers int, out string) (childResult, error) {
	start := time.Now()
	src, err := ingest.Open(dir, ingestOptions(workers))
	if err != nil {
		return childResult{}, err
	}
	study := intliot.NewStudyFromSource(src)
	study.SetAnalysisWorkers(workers)
	study.Run()
	if _, err := writeReport(out, document(study, src)); err != nil {
		return childResult{}, err
	}
	return studyResult(study, start), nil
}

func fleetPass(seed int64, homes, workers int, out string) (childResult, error) {
	start := time.Now()
	agg, err := fleet.Run(context.Background(), fleet.Config{Homes: homes, Seed: seed, Workers: workers}, nil)
	if err != nil {
		return childResult{}, err
	}
	if _, err := writeReport(out, report.FleetDocument(agg)); err != nil {
		return childResult{}, err
	}
	return childResult{JobSeconds: time.Since(start).Seconds()}, nil
}

func studyResult(study *intliot.Study, start time.Time) childResult {
	p := study.Pipeline()
	return childResult{
		Experiments: p.Stats.Experiments + p.IdleStats.Experiments,
		Bytes:       p.Stats.Bytes + p.IdleStats.Bytes,
		JobSeconds:  time.Since(start).Seconds(),
	}
}

// document is the canonical report moniotr -json prints for a study.
func document(study *intliot.Study, src *ingest.Source) *intliot.Document {
	doc := study.ReportDocument()
	if src != nil {
		if lt := src.Report().LabelTable(); lt != nil {
			doc.Add("ingest-labels", lt)
		}
	}
	return doc
}

// writeReport renders doc as canonical JSON into path and returns the
// number of bytes written.
func writeReport(path string, doc *intliot.Document) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	if err := doc.RenderJSON(bw); err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

func exportTree(config string, seed int64, dir string) error {
	var cfg intliot.Config
	switch config {
	case "idle":
		cfg = idleConfig(seed)
	case "upload":
		cfg = uploadConfig(seed)
	default:
		return fmt.Errorf("unknown export config %q", config)
	}
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}
	return ingest.Export(dir, r)
}

// tracedPass is the traced replica: one serial pass that mirrors the
// serial branch of analysis.Pipeline.Run through public calls, with a
// span around every call into a layer, followed by the decode and
// content probes under roots of their own.
func tracedPass(kind string, seed int64, dir, out, spansPath string) (childResult, error) {
	tr := NewTracer()
	var (
		res childResult
		err error
	)
	tr.Run("pass", func() { res, err = replica(tr, kind == "traced-synth", seed, dir, out) })
	if err != nil {
		return res, err
	}
	root := tr.spans[0]
	wall := time.Duration(root.End - root.Start)
	if kind == "traced-ingest" {
		tr.Run("probe", func() { err = decodeProbe(tr, dir) })
		if err != nil {
			return res, err
		}
	}
	tr.Run("probe", func() { err = contentProbe(tr, kind == "traced-synth", seed, dir) })
	if err != nil {
		return res, err
	}
	res.Layers = layerMetrics(SelfTimes(tr.spans), tr.counts, wall)
	res.JobSeconds = wall.Seconds()
	return res, tr.WriteFile(spansPath)
}

func replica(tr *Tracer, synth bool, seed int64, dir, out string) (childResult, error) {
	var (
		study  *intliot.Study
		src    *ingest.Source
		err    error
		source = "ingest.deliver"
	)
	if synth {
		source = "synth"
		tr.Run("synth.build", func() {
			cfg := synthConfig(seed)
			cfg.Workers = 1
			study, err = intliot.NewStudy(cfg)
		})
	} else {
		tr.Run("ingest.open", func() {
			src, err = ingest.Open(dir, ingestOptions(1))
			if err == nil {
				study = intliot.NewStudyFromSource(src)
			}
		})
	}
	if err != nil {
		return childResult{}, err
	}
	p := study.Pipeline()
	cfg := analysis.DefaultInferConfig()
	cfg.Workers = 1

	degrade := func(exp *testbed.Experiment) {
		tr.Run("analysis.degrade", func() {
			pkts, _ := analysis.DedupRetransmissions(exp.Packets)
			exp.Packets, _ = analysis.FilterCoverFlows(pkts)
		})
	}
	visit := func(exp *testbed.Experiment, name string, f func(*testbed.Experiment)) {
		tr.Run(name, func() { f(exp) })
	}
	tr.Run(source, func() {
		p.Stats = p.Source.RunControlled(func(exp *testbed.Experiment) {
			degrade(exp)
			visit(exp, "analysis.dest", p.Dest.Visit)
			visit(exp, "analysis.enc", p.Enc.Visit)
			visit(exp, "analysis.content", p.Content.Visit)
			visit(exp, "analysis.identify", p.Identify.Visit)
			exp.Done()
		})
	})
	tr.Run("analysis.infer", func() { p.Inference = p.Content.Infer(cfg) })
	tr.Run("analysis.detector_build", func() { p.Detector = analysis.NewDetector(p.Content, p.Inference, cfg) })
	p.IdleHits = analysis.NewDetectResult()
	tr.Run(source, func() {
		p.IdleStats = p.Source.RunIdle(func(exp *testbed.Experiment) {
			degrade(exp)
			visit(exp, "analysis.dest", p.Dest.Visit)
			visit(exp, "analysis.enc", p.Enc.Visit)
			tr.Run("analysis.detect_idle", func() { p.Detector.VisitIdle(exp, p.IdleHits) })
			exp.Done()
		})
	})
	var uncontrolled experiments.Stats
	if r := p.Runner(); r != nil {
		p.UncontrolledHits = analysis.NewDetectResult()
		p.Unexpected = make(map[string]int)
		tr.Run(source, func() {
			uncontrolled = r.RunUncontrolled(func(res *experiments.UncontrolledResult) {
				degrade(res.Experiment)
				tr.Run("analysis.detect_uncontrolled", func() {
					p.Detector.VisitUncontrolled(res, p.UncontrolledHits, p.Unexpected)
				})
			})
		})
	}
	var n int64
	tr.Run("report.render", func() { n, err = writeReport(out, document(study, src)) })
	if err != nil {
		return childResult{}, err
	}

	res := studyResult(study, time.Now())
	tr.Count("report.bytes", float64(n))
	tr.Count("ml.datasets", float64(len(p.Inference)))
	for _, r := range p.Inference {
		tr.Count("ml.rows", float64(r.Samples))
	}
	if synth {
		tr.Count("synth.bytes", float64(res.Bytes+uncontrolled.Bytes))
	} else {
		rep := src.Report()
		sk := rep.Skips
		tr.Count("ingest.files", float64(rep.Files))
		tr.Count("ingest.records", float64(rep.Records))
		tr.Count("ingest.skips", float64(sk.TruncatedFiles+sk.UnknownDevice+sk.UnlabeledPackets+sk.DecodeErrors+sk.BadFiles))
	}
	return res, nil
}
