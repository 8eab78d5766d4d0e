package analysis

import (
	"sort"
	"sync"

	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/parallel"
	"github.com/neu-sns/intl-iot-go/internal/pii"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// PIIFinding is one plaintext PII exposure (§6.2).
type PIIFinding struct {
	Device   string
	Lab      string
	Column   string
	Kind     pii.Kind
	Encoding string
	// Activity is the experiment label during which the exposure
	// occurred.
	Activity string
}

// ContentCollector performs the content analysis: it scans plaintext for
// PII and accumulates per-device labelled feature datasets for activity
// inference.
type ContentCollector struct {
	// FeatureSet selects the feature family (SetPaper by default).
	FeatureSet features.Set

	scanners *scannerSet
	// pending holds first-seen findings tagged with their discovery
	// position — the experiment's delivery sequence plus the rank within
	// that experiment. Findings() sorts by that position before the
	// global dedup, so fold units reproduce the serial insertion order
	// exactly (ties in the report sort depend on it).
	pending  []seqFinding
	findings []PIIFinding
	findSeen map[PIIFinding]bool
	autoSeq  int64

	// datasets maps (device instance, column) to its labelled dataset.
	datasets map[instColKey]*ml.Dataset
	// meta
	devCategory map[instColKey]string
	devCommon   map[instColKey]bool
	devName     map[instColKey]string
}

// scannerSet compiles each device instance's PII scanner once. A
// collector and every fold unit split from it share one set,
// so a streaming ingest, which opens a fold unit per capture file, does
// not recompile a device's corpus for every file. Scanners are
// read-only, so units on different goroutines can share them.
type scannerSet struct {
	mu sync.Mutex
	m  map[string]*pii.Scanner
}

func (s *scannerSet) get(devID string, corpus *pii.Corpus) *pii.Scanner {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := s.m[devID]
	if sc == nil {
		sc = pii.NewScanner(corpus)
		s.m[devID] = sc
	}
	return sc
}

type seqFinding struct {
	seq int64
	ord int
	f   PIIFinding
}

type instColKey struct {
	Device string // instance ID (lab-qualified)
	Column string
}

// NewContentCollector builds a collector.
func NewContentCollector() *ContentCollector {
	return &ContentCollector{
		FeatureSet:  features.SetPaper,
		scanners:    &scannerSet{m: make(map[string]*pii.Scanner)},
		findSeen:    make(map[PIIFinding]bool),
		datasets:    make(map[instColKey]*ml.Dataset),
		devCategory: make(map[instColKey]string),
		devCommon:   make(map[instColKey]bool),
		devName:     make(map[instColKey]string),
	}
}

// Visit consumes one experiment: PII scan plus one dataset row.
func (c *ContentCollector) Visit(exp *testbed.Experiment) {
	c.visitAt(c.autoSeq, exp)
	c.autoSeq++
}

// visitAt is Visit with an explicit delivery sequence number, used by
// fold units so findings discovered in different units can be
// re-interleaved into delivery order afterwards.
func (c *ContentCollector) visitAt(seq int64, exp *testbed.Experiment) {
	devID := exp.Device.ID()
	// PII scan over every payload (ciphertext can't match, so scanning
	// everything is equivalent to scanning plaintext only).
	sc := c.scanners.get(devID, exp.Device.PII)
	ord := 0
	for _, p := range exp.Packets {
		if len(p.Payload) == 0 {
			continue
		}
		for _, m := range sc.Scan(p.Payload) {
			f := PIIFinding{
				Device: exp.Device.Profile.Name, Lab: exp.Lab, Column: exp.Column,
				Kind: m.Item.Kind, Encoding: m.Encoding, Activity: exp.Activity,
			}
			if !c.findSeen[f] {
				c.findSeen[f] = true
				c.pending = append(c.pending, seqFinding{seq, ord, f})
				ord++
			}
		}
	}

	// Feature row for labelled controlled experiments.
	if exp.Kind != testbed.KindPower && exp.Kind != testbed.KindInteraction {
		return
	}
	if len(exp.Packets) < 2 {
		return
	}
	key := instColKey{devID, exp.Column}
	ds := c.datasets[key]
	if ds == nil {
		ds = &ml.Dataset{FeatureNames: features.Names(c.FeatureSet)}
		c.datasets[key] = ds
		c.devCategory[key] = string(exp.Device.Profile.Category)
		c.devCommon[key] = exp.Device.Profile.Common()
		c.devName[key] = exp.Device.Profile.Name
	}
	ds.Features = append(ds.Features, features.Vector(exp.Packets, c.FeatureSet))
	ds.Labels = append(ds.Labels, exp.Activity)
}

// finalize materializes pending findings into c.findings in delivery
// order. Entries are sorted by (sequence, within-experiment rank) — a
// total order, since each sequence number belongs to one experiment —
// then deduplicated first-seen, reproducing exactly the list a serial
// run builds online. Serial visits enqueue in order already, so their
// sort is a no-op and the dedup drops nothing.
func (c *ContentCollector) finalize() {
	if len(c.pending) == 0 {
		return
	}
	sort.Slice(c.pending, func(i, j int) bool {
		if c.pending[i].seq != c.pending[j].seq {
			return c.pending[i].seq < c.pending[j].seq
		}
		return c.pending[i].ord < c.pending[j].ord
	})
	seen := make(map[PIIFinding]bool, len(c.findings))
	for _, f := range c.findings {
		seen[f] = true
	}
	for _, sf := range c.pending {
		if seen[sf.f] {
			continue
		}
		seen[sf.f] = true
		c.findings = append(c.findings, sf.f)
	}
	c.pending = nil
}

// newFoldUnit returns an empty collector with c's feature set, sharing
// c's compiled scanners.
func (c *ContentCollector) newFoldUnit() *ContentCollector {
	s := NewContentCollector()
	s.FeatureSet = c.FeatureSet
	s.scanners = c.scanners
	return s
}

// mergeFold folds a unit into c. Unit sequence numbers are unit-local
// (0..count-1): base — the number of controlled experiments merged
// before this unit in campaign order — rebases them onto the global
// delivery sequence, reproducing the seqs a serial run would have
// assigned. Dataset rows append: one instance's rows span every unit of
// its runs.
func (c *ContentCollector) mergeFold(o *ContentCollector, base, count int64) {
	for _, sf := range o.pending {
		sf.seq += base
		c.pending = append(c.pending, sf)
	}
	for f := range o.findSeen {
		c.findSeen[f] = true
	}
	if base+count > c.autoSeq {
		c.autoSeq = base + count
	}
	for k, ds := range o.datasets {
		cur := c.datasets[k]
		if cur == nil {
			c.datasets[k] = ds
			c.devCategory[k] = o.devCategory[k]
			c.devCommon[k] = o.devCommon[k]
			c.devName[k] = o.devName[k]
			continue
		}
		cur.Features = append(cur.Features, ds.Features...)
		cur.Labels = append(cur.Labels, ds.Labels...)
	}
}

// Findings returns the deduplicated PII exposures sorted by device.
func (c *ContentCollector) Findings() []PIIFinding {
	c.finalize()
	out := append([]PIIFinding(nil), c.findings...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		if out[i].Column != out[j].Column {
			return out[i].Column < out[j].Column
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Dataset exposes one device-column dataset (nil if absent).
func (c *ContentCollector) Dataset(deviceID, column string) *ml.Dataset {
	return c.datasets[instColKey{deviceID, column}]
}

// InferenceResult is the cross-validation outcome for one device-column.
type InferenceResult struct {
	DeviceID   string
	DeviceName string
	Category   string
	Column     string
	Common     bool
	DeviceF1   float64
	ActivityF1 map[string]float64
	Samples    int
}

// InferrableThreshold is the paper's §6.3 bar.
const InferrableThreshold = 0.75

// HighAccuracyThreshold is the §7.1 bar for models used on idle traffic.
const HighAccuracyThreshold = 0.9

// InferConfig controls the evaluation.
type InferConfig struct {
	CV ml.CVConfig
	// Workers bounds model-evaluation parallelism across datasets (0
	// means GOMAXPROCS, 1 is serial); cross-validation inside each
	// dataset then runs serially. Results are identical for any value:
	// each dataset's evaluation is an independent pure function of its
	// rows and the CV seed, and results are placed by dataset index.
	Workers int
}

// DefaultInferConfig mirrors §6.3: 7/3 split, 10 repeats.
func DefaultInferConfig() InferConfig {
	return InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 10, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 25},
	}}
}

// Infer cross-validates every device-column dataset.
func (c *ContentCollector) Infer(cfg InferConfig) []InferenceResult {
	keys := make([]instColKey, 0, len(c.datasets))
	for k := range c.datasets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Device != keys[j].Device {
			return keys[i].Device < keys[j].Device
		}
		return keys[i].Column < keys[j].Column
	})
	eligible := keys[:0]
	for _, k := range keys {
		ds := c.datasets[k]
		if ds.NumExamples() < 6 || len(ds.Classes()) < 2 {
			continue
		}
		eligible = append(eligible, k)
	}
	// Evaluate datasets in parallel; each result lands in its own slot,
	// so the output order matches the serial sorted-key loop exactly.
	cvCfg := cfg.CV
	cvCfg.Workers = 1 // the datasets already saturate the worker pool
	out := make([]InferenceResult, len(eligible))
	parallel.For(len(eligible), parallel.Workers(cfg.Workers), func(i int) {
		k := eligible[i]
		ds := c.datasets[k]
		res := ml.CrossValidate(ds, cvCfg)
		out[i] = InferenceResult{
			DeviceID:   k.Device,
			DeviceName: c.devName[k],
			Category:   c.devCategory[k],
			Column:     k.Column,
			Common:     c.devCommon[k],
			DeviceF1:   res.DeviceF1,
			ActivityF1: res.ActivityF1,
			Samples:    ds.NumExamples(),
		}
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// InferrableDevicesByCategory returns Table 9: per (category, column) the
// number of devices with DeviceF1 above the threshold.
func InferrableDevicesByCategory(results []InferenceResult, column string, commonOnly bool) map[string]int {
	out := map[string]int{}
	for _, r := range results {
		if r.Column != column || (commonOnly && !r.Common) {
			continue
		}
		if r.DeviceF1 > InferrableThreshold {
			out[r.Category]++
		}
	}
	return out
}

// InferrableActivitiesByGroup returns Table 10: per (activity group,
// column) the number of devices with at least one inferrable activity in
// the group.
func InferrableActivitiesByGroup(results []InferenceResult, column string, commonOnly bool) map[ActivityGroup]int {
	out := map[ActivityGroup]int{}
	for _, r := range results {
		if r.Column != column || (commonOnly && !r.Common) {
			continue
		}
		groups := map[ActivityGroup]bool{}
		for label, f1 := range r.ActivityF1 {
			if f1 > InferrableThreshold {
				groups[GroupOf(label)] = true
			}
		}
		for g := range groups {
			out[g]++
		}
	}
	return out
}

// DevicesWithActivityGroup counts, per group, the devices in a column
// whose label set includes the group at all (Table 10's "(#D)").
func DevicesWithActivityGroup(results []InferenceResult, column string) map[ActivityGroup]int {
	out := map[ActivityGroup]int{}
	for _, r := range results {
		if r.Column != column {
			continue
		}
		groups := map[ActivityGroup]bool{}
		for label := range r.ActivityF1 {
			groups[GroupOf(label)] = true
		}
		for g := range groups {
			out[g]++
		}
	}
	return out
}
