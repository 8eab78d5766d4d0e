package analysis

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// replaySource feeds a pre-synthesized experiment list through the Source
// interface, so collector benchmarks time analysis alone, not synthesis.
type replaySource struct {
	internet *cloud.Internet
	exps     []*testbed.Experiment
	stats    experiments.Stats
}

func (s *replaySource) Internet() *cloud.Internet { return s.internet }
func (s *replaySource) SetObs(*obs.Registry)      {}
func (s *replaySource) RunIdle(experiments.Visitor) experiments.Stats {
	return experiments.Stats{}
}
func (s *replaySource) RunControlled(visit experiments.Visitor) experiments.Stats {
	for _, exp := range s.exps {
		visit(exp)
	}
	return s.stats
}

// BenchmarkCollectorStage measures the controlled collector stage —
// degrade + dest + enc + content + identify over every experiment,
// folded by the pipeline — at one worker and at one per core. Both
// produce byte-identical collector state (TestPipelineMatchesSerialOracle);
// the pair quantifies the speedup.
func BenchmarkCollectorStage(b *testing.B) {
	r, err := experiments.NewRunner(experiments.Config{
		Seed: 1, AutomatedReps: 4, ManualReps: 1, PowerReps: 1, VPN: true,
		Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := &replaySource{internet: r.Internet()}
	src.stats = r.RunControlled(func(exp *testbed.Experiment) {
		src.exps = append(src.exps, exp)
	})

	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportMetric(float64(len(src.exps)), "experiments")
			for i := 0; i < b.N; i++ {
				p := NewPipeline(src)
				p.foldStream(&foldSink{p: p}, true, w, src.RunControlled)
			}
		})
	}
}
