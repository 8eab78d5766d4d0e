package ml

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// treeShape appends a preorder encoding of n: split nodes as their
// feature and the exact bits of their threshold, leaves as their class.
// Two trees with equal shapes predict identically on every input.
func treeShape(b *strings.Builder, n *node) {
	if n.feature < 0 {
		fmt.Fprintf(b, "L%s;", n.class)
		return
	}
	fmt.Fprintf(b, "S%d:%x;", n.feature, math.Float64bits(n.threshold))
	treeShape(b, n.left)
	treeShape(b, n.right)
}

func forestShapeDigest(f *Forest) string {
	var b strings.Builder
	for _, t := range f.trees {
		treeShape(&b, t.root)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// tiedDataset draws every feature from a handful of integer levels, so
// almost every sorted column is runs of equal values.
func tiedDataset(n, features, levels, classes int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		row := make([]float64, features)
		for j := range row {
			row[j] = float64((c + rng.Intn(levels)) % levels)
		}
		d.Features = append(d.Features, row)
		d.Labels = append(d.Labels, fmt.Sprintf("t%d", c))
	}
	return d
}

// constantColumns makes every other column constant.
func constantColumns(n int, seed int64) *Dataset {
	d := synthMulticlass(n, 6, 4, seed)
	for _, row := range d.Features {
		row[0], row[2], row[4] = 1.5, -3, 0
	}
	return d
}

func singleClass(n int, seed int64) *Dataset {
	d := synthDataset(n, 4, 0, seed)
	for i := range d.Labels {
		d.Labels[i] = "only"
	}
	return d
}

// manyClasses spans more classes than Predict's stack vote buffer, with
// labels whose first-seen order differs from their sorted order.
func manyClasses(n, k int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		c := (i * 37) % k
		row := []float64{float64(c) + rng.Float64()*3, rng.NormFloat64(), float64(c % 7), rng.Float64()}
		d.Features = append(d.Features, row)
		d.Labels = append(d.Labels, fmt.Sprintf("k%d", c))
	}
	return d
}

// Trained forests are pinned node for node: these digests were recorded
// before the split search moved from per-label maps to integer class
// counts, and any change to split choice, threshold bits or leaf
// tie-breaks shows up here.
func TestForestShapeGolden(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
		cfg  ForestConfig
		want string
	}{
		{"multiclass", synthMulticlass(300, 8, 5, 3), ForestConfig{NumTrees: 20, Seed: 11}, "82a2c21bafc773bc"},
		{"multiclass-shallow", synthMulticlass(200, 5, 3, 4), ForestConfig{NumTrees: 10, Seed: 5,
			Tree: TreeConfig{MaxDepth: 3, MinSamplesSplit: 4, MinImpurityDecrease: 0.01}}, "d70b1e4340b8a6f7"},
		{"ties", tiedDataset(400, 6, 3, 5, 8), ForestConfig{NumTrees: 20, Seed: 2}, "4f4177b2f22af574"},
		{"constant-columns", constantColumns(240, 9), ForestConfig{NumTrees: 15, Seed: 3}, "4ecc8e1921fe5ed3"},
		{"single-class", singleClass(50, 10), ForestConfig{NumTrees: 5, Seed: 4}, "3e97a767d2673fb2"},
		{"many-classes", manyClasses(420, 70, 12), ForestConfig{NumTrees: 12, Seed: 6}, "18e78cfe98d8fcee"},
	}
	for _, tc := range cases {
		f := TrainForest(tc.d, tc.cfg)
		if got := forestShapeDigest(f); got != tc.want {
			t.Errorf("%s: forest digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// A full-feature tree (no subsampling, no rng) over tied data exercises
// the boundary scan without bootstrap duplication.
func TestTreeShapeGolden(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
		want string
	}{
		{"ties", tiedDataset(300, 4, 4, 3, 21), "b86043ffcea7479d"},
		{"many-classes", manyClasses(300, 70, 22), "bd92b44e75a6ecb5"},
	}
	for _, tc := range cases {
		tr := TrainTree(tc.d, DefaultTreeConfig, nil)
		var b strings.Builder
		treeShape(&b, tr.root)
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:8]); got != tc.want {
			t.Errorf("%s: tree digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
