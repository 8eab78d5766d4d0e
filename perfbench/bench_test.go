package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// treeDigest hashes every file under dir, names and contents, in order.
func treeDigest(t *testing.T, dir string) string {
	t.Helper()
	var buf bytes.Buffer
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		buf.WriteString(rel + "\x00" + digestBytes(data) + "\n")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return digestBytes(buf.Bytes())
}

func TestGeneratedInputsFollowTheSeed(t *testing.T) {
	configs := []string{"upload"}
	if !testing.Short() {
		configs = append(configs, "idle")
	}
	for _, config := range configs {
		t.Run(config, func(t *testing.T) {
			gen := func(seed int64) (tree, archive string) {
				dir := filepath.Join(t.TempDir(), "tree")
				if err := exportTree(config, seed, dir); err != nil {
					t.Fatal(err)
				}
				if config == "upload" {
					if err := pruneUpload(dir); err != nil {
						t.Fatal(err)
					}
				}
				tarball, err := tarTree(dir)
				if err != nil {
					t.Fatal(err)
				}
				return treeDigest(t, dir), digestBytes(tarball)
			}
			tree1, tar1 := gen(1)
			tree1b, tar1b := gen(1)
			tree2, tar2 := gen(2)
			if tree1 != tree1b || tar1 != tar1b {
				t.Errorf("seed 1 generated different inputs on two runs")
			}
			if tree1 == tree2 || tar1 == tar2 {
				t.Errorf("seeds 1 and 2 generated the same inputs")
			}
		})
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json's metric lists and
// workloads in step with the ones the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
		if w.heldOut == w.defaultSeed {
			t.Errorf("workload %s: held-out seed equals the default seed", w.name)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 10, 11, 19, 20, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending, so tail must sort
		}
		v, pct, ok := tail(xs)
		if n < 2*tailBeyond {
			if ok || v != float64(n-1) {
				t.Errorf("n=%d: got (%v, %v), want the maximum with ok=false", n, v, ok)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if !ok || beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond %v, want exactly %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // reaches past the root: covers 90..100
		{Name: "d", Start: 15, End: 20, Parent: 1},  // grandchild: only a's self time shrinks
		{Name: "neg", Start: -50, End: -10, Parent: -1},
		{Name: "e", Start: -40, End: -30, Parent: 5},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30, "c": 30, "d": 5, "neg": 30, "e": 10}
	for name, w := range want {
		if got[name].Self != w || got[name].Count != 1 {
			t.Errorf("%s: self %v count %d, want %v count 1", name, got[name].Self, got[name].Count, w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	tr.Run("outer", func() {
		tr.Run("inner", func() {})
		tr.Run("inner", func() {})
	})
	tr.Run("next", func() {})
	parents := map[string][]int{}
	for _, s := range tr.spans {
		parents[s.Name] = append(parents[s.Name], s.Parent)
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
	}
	want := map[string][]int{"outer": {-1}, "inner": {0, 0}, "next": {-1}}
	for name, w := range want {
		got := parents[name]
		sort.Ints(got)
		if len(got) != len(w) || got[0] != w[0] || got[len(got)-1] != w[len(w)-1] {
			t.Errorf("%s parents %v, want %v", name, got, w)
		}
	}
}

func TestGitRev(t *testing.T) {
	if _, err := os.Stat(filepath.Join("..", ".git", "HEAD")); err != nil {
		t.Skip("not a git checkout")
	}
	if rev := gitRev(".."); !regexp.MustCompile(`^[0-9a-f]{40}$`).MatchString(rev) {
		t.Errorf("gitRev = %q, want a commit hash", rev)
	}
	if rev := gitRev(t.TempDir()); rev != "" {
		t.Errorf("gitRev outside a checkout = %q, want empty", rev)
	}
}
