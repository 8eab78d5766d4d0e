package analysis

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/orgdb"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// pipelineFingerprint freezes everything report tables read from a run:
// destination counters, encryption rows (including the order-sensitive
// Welch-test significance flags), PII findings in insertion order,
// inference and identification results, and the idle detections. Two
// fingerprints are reflect.DeepEqual only if every table would render
// byte-identically.
type pipelineFingerprint struct {
	ExpParty   map[string]int
	Orgs       []OrgRow
	Bands      []VolumeBand
	NFP        [2]int
	EncRows    []DeviceRow
	Findings   []PIIFinding
	Inference  []InferenceResult
	Identify   []IdentifyResult
	Detections []Detection
	Counts     map[DetectKey]int
	Hours      map[string]float64
	Stats      [2]experiments.Stats
}

func fingerprint(p *Pipeline, cv ml.CVConfig) pipelineFingerprint {
	fp := pipelineFingerprint{
		ExpParty:   map[string]int{},
		Orgs:       p.Dest.TopOrganizations(0),
		Bands:      p.Dest.TrafficBands(0),
		EncRows:    p.Enc.DeviceRows(nil),
		Findings:   p.Content.Findings(),
		Inference:  p.Inference,
		Identify:   p.Identify.Evaluate(cv),
		Detections: p.IdleHits.Detections,
		Counts:     p.IdleHits.Counts,
		Hours:      p.IdleHits.Hours,
		Stats:      [2]experiments.Stats{p.Stats, p.IdleStats},
	}
	fp.NFP[0], fp.NFP[1] = p.Dest.DevicesWithNonFirstParty()
	for _, typ := range append(ExpTypesForTable2, ExpOther) {
		for _, col := range Columns {
			for _, party := range []orgdb.PartyType{orgdb.PartyFirst, orgdb.PartySupport, orgdb.PartyThird} {
				k := string(typ) + "|" + col + "|" + party.String()
				fp.ExpParty[k] = p.Dest.CountByExpParty(typ, party, col, false)
				fp.ExpParty[k+"|common"] = p.Dest.CountByExpParty(typ, party, col, true)
			}
		}
	}
	return fp
}

// serialOracle runs a campaign the way one goroutine visiting every
// collector in delivery order would, through the public per-collector
// calls only: degrade, then Visit on each collector for a controlled
// experiment, training, then Visit and Detector.VisitIdle for an idle
// one. It is the reference every way of folding must reproduce.
func serialOracle(p *Pipeline, cfg InferConfig) {
	degrade := func(exp *testbed.Experiment) {
		pkts, _ := DedupRetransmissions(exp.Packets)
		exp.Packets, _ = FilterCoverFlows(pkts)
	}
	cfg.Workers = 1
	p.Stats = p.Source.RunControlled(func(exp *testbed.Experiment) {
		degrade(exp)
		p.Dest.Visit(exp)
		p.Enc.Visit(exp)
		p.Content.Visit(exp)
		p.Identify.Visit(exp)
		exp.Done()
	})
	p.Inference = p.Content.Infer(cfg)
	p.Detector = NewDetector(p.Content, p.Inference, cfg)
	p.IdleHits = NewDetectResult()
	p.IdleStats = p.Source.RunIdle(func(exp *testbed.Experiment) {
		degrade(exp)
		p.Dest.Visit(exp)
		p.Enc.Visit(exp)
		p.Detector.VisitIdle(exp, p.IdleHits)
		exp.Done()
	})
}

// oracleCampaign is small enough to run many times yet has several
// devices per lab, VPN legs, idle time on two columns, PII findings and
// trainable models.
var oracleCampaign = experiments.Config{
	Seed:          1,
	AutomatedReps: 6,
	ManualReps:    2,
	PowerReps:     2,
	IdleHours:     map[string]float64{"US": 2, "GB": 1},
	VPN:           true,
	Workers:       1,
}

var oracleInfer = InferConfig{CV: ml.CVConfig{
	TrainFrac: 0.7, Repeats: 3, Seed: 42,
	Forest: ml.ForestConfig{NumTrees: 8},
}}

func oracleRunner(t *testing.T) *experiments.Runner {
	t.Helper()
	r, err := experiments.NewRunner(oracleCampaign)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// diffFingerprints reports each field of got that differs from want.
func diffFingerprints(t *testing.T, what string, got, want pipelineFingerprint) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i, name := range []string{"dest", "orgs", "bands", "nfp", "enc", "findings", "inference", "identify", "detections", "counts", "hours", "stats"} {
		a := reflect.ValueOf(got).Field(i).Interface()
		b := reflect.ValueOf(want).Field(i).Interface()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %s differs from the serial oracle", what, name)
		}
	}
}

// The guarantee end to end inside the analysis layer: Pipeline.Run on N
// workers produces bit-identical collector state, models and detections
// to the serial oracle — including float-valued results, whose
// accumulation order the fold merges preserve or canonicalize.
func TestPipelineMatchesSerialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns skipped in -short")
	}
	op := NewPipeline(oracleRunner(t))
	serialOracle(op, oracleInfer)
	want := fingerprint(op, oracleInfer.CV)
	if len(want.Findings) == 0 || len(want.Inference) == 0 || len(want.Detections) == 0 {
		t.Fatal("campaign produced no findings/inference/detections; fingerprint is vacuous")
	}
	for _, workers := range []int{1, 2, 3, 5} {
		p := NewPipeline(oracleRunner(t))
		p.Workers = workers
		// Attach a registry so the fold-unit timing runs under -race
		// too; instrumentation must change no output.
		p.SetObs(obs.NewRegistry())
		p.Run(oracleInfer)
		diffFingerprints(t, fmt.Sprintf("workers=%d", workers), fingerprint(p, oracleInfer.CV), want)
	}
}

// Fold units must give the same result however a leg is cut into runs,
// as long as the runs are contiguous and merge in delivery order. Drive
// foldSink directly with cuts every 1, 2 and 7 experiments, at device
// boundaries, and one unit per leg.
func TestFoldPartitionInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns skipped in -short")
	}
	op := NewPipeline(oracleRunner(t))
	serialOracle(op, oracleInfer)
	want := fingerprint(op, oracleInfer.CV)

	every := func(k int) func(prev, exp *testbed.Experiment, n int) bool {
		return func(_, _ *testbed.Experiment, n int) bool { return n == k }
	}
	cuts := []struct {
		name string
		cut  func(prev, exp *testbed.Experiment, n int) bool
	}{
		{"every-1", every(1)},
		{"every-2", every(2)},
		{"every-7", every(7)},
		{"device", func(prev, exp *testbed.Experiment, _ int) bool {
			return prev.Device.ID() != exp.Device.ID()
		}},
		{"whole-leg", func(*testbed.Experiment, *testbed.Experiment, int) bool { return false }},
	}
	for _, tc := range cuts {
		r := oracleRunner(t)
		p := NewPipeline(r)
		sink := &foldSink{p: p}
		// fold cuts one leg with tc.cut and folds each run into its own
		// unit, merging in delivery order.
		fold := func(controlled bool, run func(experiments.Visitor) experiments.Stats) experiments.Stats {
			var exps []*testbed.Experiment
			stats := run(func(exp *testbed.Experiment) { exps = append(exps, exp) })
			var unit experiments.FoldUnit
			n := 0
			for i, exp := range exps {
				if i == 0 || tc.cut(exps[i-1], exp, n) {
					if unit != nil {
						sink.MergeFoldUnit(controlled, unit)
					}
					unit, n = sink.NewFoldUnit(controlled), 0
				}
				unit.Fold(exp)
				n++
			}
			if unit != nil {
				sink.MergeFoldUnit(controlled, unit)
			}
			return stats
		}
		p.Stats = fold(true, r.RunControlled)
		cfg := oracleInfer
		cfg.Workers = 1
		if !p.train(cfg) {
			t.Fatal("training reported a cancellation")
		}
		p.IdleHits = NewDetectResult()
		p.IdleStats = fold(false, r.RunIdle)
		p.replayIdleDetections(sink.idle)
		diffFingerprints(t, "cut "+tc.name, fingerprint(p, oracleInfer.CV), want)
	}
}
