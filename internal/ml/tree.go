package ml

import (
	"math/rand"
	"slices"
)

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	// MaxDepth limits the tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting.
	MinSamplesSplit int
	// MinImpurityDecrease is the minimum Gini decrease for a split.
	MinImpurityDecrease float64
	// FeatureSubset, if > 0, samples that many candidate features per
	// split (the random-forest "mtry" parameter). 0 considers all.
	FeatureSubset int
}

// DefaultTreeConfig mirrors common CART defaults.
var DefaultTreeConfig = TreeConfig{MaxDepth: 24, MinSamplesSplit: 2}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	class     string // leaf payload
}

// Tree is a trained CART classifier.
type Tree struct {
	root *node
}

// TrainTree fits a CART tree on d. The rng drives feature subsampling
// when cfg.FeatureSubset > 0; it may be nil when FeatureSubset == 0.
func TrainTree(d *Dataset, cfg TreeConfig, rng *rand.Rand) *Tree {
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	g := newGrower(d, cfg, rng)
	idx := make([]int, d.NumExamples())
	for i := range idx {
		idx[i] = i
	}
	return &Tree{root: g.grow(idx, 0)}
}

// grower holds one tree's induction state. Labels are mapped once to
// int32 class indices in sorted label order, so the leaf argmax's
// "first maximum wins" is the lexicographically smallest label, and
// every count is a slot in a slice reused across nodes.
type grower struct {
	d       *Dataset
	cfg     TreeConfig
	rng     *rand.Rand
	classes []string
	y       []int32

	counts, left, right []int64
	features            []int
	pairs               []valClass
}

type valClass struct {
	v float64
	c int32
}

func newGrower(d *Dataset, cfg TreeConfig, rng *rand.Rand) *grower {
	classes := d.Classes()
	slices.Sort(classes)
	rank := make(map[string]int32, len(classes))
	for i, c := range classes {
		rank[c] = int32(i)
	}
	y := make([]int32, len(d.Labels))
	for i, l := range d.Labels {
		y[i] = rank[l]
	}
	k := len(classes)
	return &grower{
		d: d, cfg: cfg, rng: rng, classes: classes, y: y,
		counts:   make([]int64, k),
		left:     make([]int64, k),
		right:    make([]int64, k),
		features: make([]int, d.NumFeatures()),
		pairs:    make([]valClass, len(y)),
	}
}

// grow builds the subtree over the rows in idx, reordering idx in place
// so each child's rows are a contiguous sub-slice.
func (g *grower) grow(idx []int, depth int) *node {
	clear(g.counts)
	for _, i := range idx {
		g.counts[g.y[i]]++
	}
	// The leaf this node becomes if it is not split, decided now because
	// the split search reuses the count scratch.
	best, distinct := -1, 0
	for c, n := range g.counts {
		if n > 0 {
			distinct++
		}
		if best < 0 || n > g.counts[best] {
			best = c
		}
	}
	class := ""
	if best >= 0 {
		class = g.classes[best]
	}
	if distinct == 1 ||
		len(idx) < g.cfg.MinSamplesSplit ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) {
		return &node{feature: -1, class: class}
	}
	feat, thr, gain := g.bestSplit(idx)
	if feat < 0 || gain <= g.cfg.MinImpurityDecrease {
		return &node{feature: -1, class: class}
	}
	lo, hi := 0, len(idx)
	for lo < hi {
		if g.d.Features[idx[lo]][feat] <= thr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == len(idx) {
		return &node{feature: -1, class: class}
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      g.grow(idx[:lo], depth+1),
		right:     g.grow(idx[lo:], depth+1),
	}
}

// gini computes the Gini impurity of a node of total rows whose class
// counts square-sum to sumSq. The sum is kept in integers so the result
// does not depend on accumulation order.
func gini(sumSq int64, total int) float64 {
	if total == 0 {
		return 0
	}
	t := int64(total)
	return 1 - float64(sumSq)/float64(t*t)
}

// bestSplit finds the (feature, threshold) pair with maximum Gini
// decrease; g.counts must hold the class counts of idx. Thresholds are
// midpoints between consecutive distinct sorted feature values. A
// candidate depends only on which values fall on each side of a
// distinct-value boundary, so the order of equal values after sorting
// does not matter. Moving one row of class c from right to left changes
// the squared-count sums by +2·left[c]+1 and −(2·right[c]−1), which
// keeps both sums exact integers without rescanning the classes.
func (g *grower) bestSplit(idx []int) (int, float64, float64) {
	nf := len(g.features)
	if nf == 0 {
		return -1, 0, 0
	}
	features := g.features
	for i := range features {
		features[i] = i
	}
	if g.cfg.FeatureSubset > 0 && g.cfg.FeatureSubset < nf && g.rng != nil {
		g.rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:g.cfg.FeatureSubset]
		slices.Sort(features) // determinism of tie-breaks
	}

	var parentSq int64
	for _, n := range g.counts {
		parentSq += n * n
	}
	nTotal := len(idx)
	parentGini := gini(parentSq, nTotal)
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0

	vc := g.pairs[:nTotal]
	left, right := g.left, g.right
	for _, f := range features {
		for i, j := range idx {
			vc[i] = valClass{g.d.Features[j][f], g.y[j]}
		}
		slices.SortFunc(vc, func(a, b valClass) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})

		clear(left)
		copy(right, g.counts)
		leftSq, rightSq := int64(0), parentSq
		for i := 0; i < nTotal-1; i++ {
			c := vc[i].c
			leftSq += 2*left[c] + 1
			left[c]++
			rightSq -= 2*right[c] - 1
			right[c]--
			if vc[i].v == vc[i+1].v {
				continue // can't split between equal values
			}
			nLeft := i + 1
			nRight := nTotal - nLeft
			w := float64(nLeft)/float64(nTotal)*gini(leftSq, nLeft) +
				float64(nRight)/float64(nTotal)*gini(rightSq, nRight)
			gain := parentGini - w
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (vc[i].v + vc[i+1].v) / 2
			}
		}
	}
	return bestFeat, bestThr, bestGain
}

// Predict returns the predicted class for one feature vector.
func (t *Tree) Predict(x []float64) string {
	n := t.root
	for n.feature >= 0 {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Depth returns the depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.feature < 0 {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int { return nodeCount(t.root) }

func nodeCount(n *node) int {
	if n == nil {
		return 0
	}
	if n.feature < 0 {
		return 1
	}
	return 1 + nodeCount(n.left) + nodeCount(n.right)
}
