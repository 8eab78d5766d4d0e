package analysis

import (
	"sync"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/entropy"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Fold units: the one way Pipeline.Run runs collectors.
//
// The collectors absorb a campaign through the fold contract
// (internal/experiments.FoldSink): each contiguous run of a leg folds
// into a private unit — a full set of empty collectors — and the units
// merge serially in campaign order. Runs come from one of two places:
// a source with a single-decode pass (singleDecodeSource) folds each
// capture file's run on the worker that decoded it; every other source
// delivers each leg serially into foldStream, which cuts it into runs
// and folds them on Pipeline.Workers goroutines. Every table stays
// byte-identical to one serial visit of every experiment because
//
//   - device-local, order-sensitive state (DNS replay caches, Welch
//     samples, idle hours) sees the serial order within each run, and
//     runs merge in the serial order;
//   - cross-run DNS label resolution is deferred: a fold unit that
//     cannot resolve an address against its own run's answers parks the
//     flow, and mergeFold resolves it against exactly the answers a
//     serial replay would have seen (dest.go);
//   - sequence-tagged rows (PII findings, identification rows) carry
//     unit-local sequences that MergeFoldUnit rebases onto the global
//     campaign sequence;
//   - idle-leg detection needs models that only exist after the
//     controlled leg trains, so fold units capture each idle
//     experiment's traffic units (segmented and vectorized exactly as
//     Detector.VisitIdle would) and replayIdleDetections classifies them
//     in campaign order once the models exist.
type singleDecodeSource interface {
	Source
	// SingleDecode reports whether the source can still run a fold pass
	// (streaming enabled, legacy two-pass not forced, no replay pass
	// already prepared).
	SingleDecode() bool
	// RunSingleDecode decodes every file once, folding experiments into
	// sink units as they decode and merging them in campaign order. It
	// returns the controlled- and idle-leg statistics.
	RunSingleDecode(experiments.FoldSink) (ctl, idle experiments.Stats)
}

// foldSink adapts the pipeline's collectors to the fold contract.
// MergeFoldUnit is called serially (contract), so the running global
// sequence and the idle capture list need no locking.
type foldSink struct {
	p *Pipeline
	// ctlSeq is the global controlled-leg delivery sequence: the number
	// of controlled experiments merged so far. Unit-local row sequences
	// rebase onto it.
	ctlSeq int64
	// idle accumulates captured idle experiments in campaign order for
	// post-training detection replay.
	idle []idleCapture
}

func (s *foldSink) NewFoldUnit(controlled bool) experiments.FoldUnit {
	u := &foldUnit{
		p:          s.p,
		controlled: controlled,
		dest:       s.p.Dest.newFoldUnit(),
		enc:        s.p.Enc.newFoldUnit(),
	}
	if controlled {
		u.content = s.p.Content.newFoldUnit()
		u.identify = s.p.Identify.newFoldUnit()
	}
	if s.p.metrics != nil {
		u.timing = new(foldTiming)
	}
	return u
}

func (s *foldSink) MergeFoldUnit(controlled bool, unit experiments.FoldUnit) {
	u := unit.(*foldUnit)
	p := s.p
	p.Dest.mergeFold(u.dest)
	p.Enc.mergeFold(u.enc)
	if controlled {
		p.Content.mergeFold(u.content, s.ctlSeq, u.count)
		p.Identify.mergeFold(u.identify, s.ctlSeq, u.count)
		s.ctlSeq += u.count
	} else {
		s.idle = append(s.idle, u.idle...)
	}
	u.timing.flush(p.metrics)
}

// foldRunLen caps the experiments of one run; runs otherwise end where
// the device changes. Each cut inside a device's experiments parks the
// flows the new unit cannot name from its own DNS answers in dest's
// deferred list until the merge, so the cap stays large.
const foldRunLen = 256

// foldRun is one run of a leg between its first experiment and its
// merge.
type foldRun struct {
	unit experiments.FoldUnit
	// exps feeds the worker folding the run; nil when folding inline.
	exps chan *testbed.Experiment
	// done is closed once every experiment of the run has been folded.
	done chan struct{}
}

// foldStream delivers one leg of a source through fold units. It cuts
// the serial delivery into runs, each ending where the device changes or
// after foldRunLen experiments, and folds each run into a fresh unit of
// sink on workers goroutines; units merge serially, in delivery order,
// with at most 2×workers runs in flight. With one worker every run folds
// inline on the delivering goroutine and merges as soon as it ends.
func (p *Pipeline) foldStream(sink *foldSink, controlled bool, workers int,
	run func(experiments.Visitor) experiments.Stats) experiments.Stats {

	var (
		jobs     chan *foldRun
		wg       sync.WaitGroup
		inFlight []*foldRun // cut and not yet merged, in delivery order
		cur      *foldRun   // the run still being cut
		dev      *devices.Instance
		n        int
	)
	if workers > 1 {
		// Sized to the in-flight bound, so opening a run never waits for
		// a worker.
		jobs = make(chan *foldRun, 2*workers)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for r := range jobs {
					for exp := range r.exps {
						r.unit.Fold(exp)
					}
					close(r.done)
				}
			}()
		}
	}
	// merge merges finished runs off the head of inFlight, waiting for
	// the head while more than keep runs are in flight.
	merge := func(keep int) {
		for len(inFlight) > 0 {
			r := inFlight[0]
			if len(inFlight) > keep {
				<-r.done
			} else {
				select {
				case <-r.done:
				default:
					return
				}
			}
			sink.MergeFoldUnit(controlled, r.unit)
			inFlight[0] = nil
			inFlight = inFlight[1:]
		}
	}
	endRun := func() {
		if cur == nil {
			return
		}
		if cur.exps != nil {
			close(cur.exps)
		} else {
			close(cur.done)
		}
		cur = nil
	}

	stats := run(func(exp *testbed.Experiment) {
		if p.canceled() {
			exp.Done()
			return
		}
		if cur == nil || exp.Device != dev || n == foldRunLen {
			endRun()
			merge(2*workers - 1)
			cur = &foldRun{unit: sink.NewFoldUnit(controlled), done: make(chan struct{})}
			if jobs != nil {
				// A run sends at most foldRunLen experiments, so
				// delivery never waits for the run's worker.
				cur.exps = make(chan *testbed.Experiment, foldRunLen)
				jobs <- cur
			}
			inFlight = append(inFlight, cur)
			dev, n = exp.Device, 0
		}
		if cur.exps != nil {
			cur.exps <- exp
		} else {
			cur.unit.Fold(exp)
		}
		n++
	})
	endRun()
	if jobs != nil {
		close(jobs)
		wg.Wait()
	}
	merge(0)
	return stats
}

// visitScratch is the per-visit working state of the flow-level
// collectors: flow assembly and the enc classifier's payload buffers.
// It lives in a pool, not in the collectors, because collectors — fold
// units above all — live until the merge, and a scratch kept there
// would pin its last experiment's packets until then.
type visitScratch struct {
	flows      netx.FlowScratch
	classifier entropy.FlowClassifier
}

var visitScratchPool = sync.Pool{New: func() any { return new(visitScratch) }}

func getVisitScratch() *visitScratch { return visitScratchPool.Get().(*visitScratch) }

// putVisitScratch drops the scratch's packet references and returns it
// to the pool.
func putVisitScratch(s *visitScratch) {
	s.flows.Reset()
	visitScratchPool.Put(s)
}

// foldUnit accumulates one contiguous run of a leg. It is goroutine-
// confined by the fold contract, so the collectors inside need no
// synchronization.
type foldUnit struct {
	p          *Pipeline
	controlled bool
	// count is the number of experiments folded; doubles as the
	// unit-local delivery sequence for visitAt.
	count    int64
	dest     *DestCollector
	enc      *EncCollector
	content  *ContentCollector
	identify *IdentifyCollector
	// idle captures idle experiments for post-training replay.
	idle []idleCapture
	// timing is nil unless the pipeline has a metrics registry.
	timing *foldTiming
}

func (u *foldUnit) Fold(exp *testbed.Experiment) {
	if u.p.canceled() {
		exp.Done()
		return
	}
	u.timing.start()
	u.p.degradeExp(exp)
	u.timing.lap(timeDegrade)
	s := getVisitScratch()
	flows := s.flows.Assemble(exp.Packets)
	u.dest.visitFlows(exp, flows)
	u.timing.lap(timeDest)
	u.enc.visitFlows(exp, flows, &s.classifier)
	putVisitScratch(s)
	u.timing.lap(timeEnc)
	if u.controlled {
		u.content.visitAt(u.count, exp)
		u.timing.lap(timeContent)
		u.identify.visitAt(u.count, exp)
		u.timing.lap(timeIdentify)
	} else {
		// The gap and feature set are the ones NewDetector configures.
		// Every unit is vectorized, even ones the MinUnitPackets filter
		// will later drop: the detector's thresholds are unknown until
		// training finishes, and the packets are gone after this fold.
		u.idle = append(u.idle, captureIdle(exp, features.DefaultUnitGap, u.p.Content.FeatureSet, 0))
		u.timing.lap(timeIdleCapture)
	}
	u.count++
	exp.Done()
}

// Per-collector timing slots of a fold unit, reported as
// collector_visits.<name> and collector_visit_ns.<name>.
const (
	timeDegrade = iota
	timeDest
	timeEnc
	timeContent
	timeIdentify
	timeIdleCapture
	numTimed
)

var timedNames = [numTimed]string{"degrade", "dest", "enc", "content", "identify", "idle_capture"}

// foldTiming tallies a unit's collector visits in plain integers, which
// the merge adds to the registry; a nil *foldTiming times nothing.
type foldTiming struct {
	visits, ns [numTimed]int64
	last       time.Time
}

func (t *foldTiming) start() {
	if t != nil {
		t.last = time.Now()
	}
}

// lap charges the time since the previous start or lap to slot i.
func (t *foldTiming) lap(i int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.ns[i] += int64(now.Sub(t.last))
	t.visits[i]++
	t.last = now
}

func (t *foldTiming) flush(reg *obs.Registry) {
	if t == nil {
		return
	}
	for i, name := range timedNames {
		if t.visits[i] > 0 {
			reg.Counter("collector_visits." + name).Add(t.visits[i])
			reg.Counter("collector_visit_ns." + name).Add(t.ns[i])
		}
	}
}

// replayIdleDetections classifies the captured idle experiments in
// campaign order — the serial order — once the models exist.
func (p *Pipeline) replayIdleDetections(idle []idleCapture) {
	for i := range idle {
		if p.canceled() {
			return
		}
		p.Detector.detectIdle(&idle[i], p.IdleHits)
	}
}

// runSingleDecode is Run's body when the source folds the campaign in
// its decode pass. Both legs decode in one pass (capture files carry
// controlled and idle windows side by side), so the controlled/idle
// stage split collapses into fold + train + idle-replay.
func (p *Pipeline) runSingleDecode(src singleDecodeSource, cfg InferConfig) {
	sink := &foldSink{p: p}
	span := p.metrics.StartSpan("stage:fold")
	p.Stats, p.IdleStats = src.RunSingleDecode(sink)
	span.End()
	if p.abortIfCanceled() || !p.train(cfg) {
		return
	}

	p.IdleHits = NewDetectResult()
	span = p.metrics.StartSpan("stage:idle")
	p.replayIdleDetections(sink.idle)
	span.End()
	p.abortIfCanceled()
}
