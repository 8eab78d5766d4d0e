package ml

import (
	"math/rand"

	"github.com/neu-sns/intl-iot-go/internal/parallel"
	"github.com/neu-sns/intl-iot-go/internal/stats"
)

// CVConfig controls repeated stratified cross-validation. The paper (§6.3)
// uses a 7/3 split repeated 10 times.
type CVConfig struct {
	TrainFrac float64
	Repeats   int
	Forest    ForestConfig
	Seed      int64
	// Workers bounds repeat-evaluation parallelism: 0 means GOMAXPROCS, 1
	// is serial. Results are bit-identical for every worker count: every
	// split and forest seed is pre-drawn sequentially from Seed, repeats
	// evaluate into per-index slots, and metrics fold in repeat order.
	Workers int
}

// PaperCVConfig is the §6.3 protocol.
var PaperCVConfig = CVConfig{TrainFrac: 0.7, Repeats: 10}

// CVResult aggregates metrics across repeats.
type CVResult struct {
	// DeviceF1 is the mean support-weighted F1 across repeats — the
	// per-device score of §6.3.
	DeviceF1 float64
	// MacroF1 is the mean unweighted per-class F1 across repeats.
	MacroF1 float64
	// ActivityF1 maps each activity label to its mean F1 across the
	// repeats in which it appeared in the test set.
	ActivityF1 map[string]float64
	// Accuracy is the mean accuracy across repeats.
	Accuracy float64
	// Repeats is the number of repeats actually evaluated (repeats whose
	// test split came out empty are skipped).
	Repeats int
}

// CrossValidate runs repeated stratified hold-out validation of a random
// forest on d and aggregates F1 metrics.
func CrossValidate(d *Dataset, cfg CVConfig) CVResult {
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		cfg.TrainFrac = 0.7
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := CVResult{ActivityF1: make(map[string]float64)}
	activityCounts := make(map[string]int)
	var sumWeighted, sumMacro, sumAcc float64

	// Pre-draw each repeat's split and forest seed in the order the
	// serial loop consumed them. Repeats whose split degenerates draw no
	// forest seed — exactly like the serial `continue` did — so the RNG
	// stream lines up draw for draw.
	type repeat struct {
		train, test []int
		seed        int64
	}
	reps := make([]repeat, 0, cfg.Repeats)
	for r := 0; r < cfg.Repeats; r++ {
		trainIdx, testIdx := StratifiedSplit(d, cfg.TrainFrac, rng)
		if len(testIdx) == 0 || len(trainIdx) == 0 {
			continue
		}
		reps = append(reps, repeat{trainIdx, testIdx, rng.Int63()})
	}

	// Evaluate repeats in parallel; each confusion matrix lands in its
	// own slot and the float metrics fold in repeat order below, so the
	// accumulation order matches the serial loop exactly. Inner forests
	// train serially — the repeats already saturate the worker pool.
	cms := make([]*stats.ConfusionMatrix, len(reps))
	parallel.For(len(reps), parallel.Workers(cfg.Workers), func(i int) {
		fcfg := cfg.Forest
		fcfg.Seed = reps[i].seed
		fcfg.Workers = 1
		forest := TrainForest(d.Subset(reps[i].train), fcfg)
		cm := stats.NewConfusionMatrix()
		for _, j := range reps[i].test {
			cm.Add(d.Labels[j], forest.Predict(d.Features[j]))
		}
		cms[i] = cm
	})

	for _, cm := range cms {
		sumWeighted += cm.WeightedF1()
		sumMacro += cm.MacroF1()
		sumAcc += cm.Accuracy()
		for _, m := range cm.PerClass() {
			if m.Support == 0 {
				continue
			}
			res.ActivityF1[m.Class] += m.F1
			activityCounts[m.Class]++
		}
		res.Repeats++
	}
	if res.Repeats > 0 {
		res.DeviceF1 = sumWeighted / float64(res.Repeats)
		res.MacroF1 = sumMacro / float64(res.Repeats)
		res.Accuracy = sumAcc / float64(res.Repeats)
	}
	for k, n := range activityCounts {
		res.ActivityF1[k] /= float64(n)
	}
	return res
}
