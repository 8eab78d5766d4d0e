package intliot

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/ingest"
)

// goldenShape is one way of delivering and analysing a campaign. Each
// shape renders its report exactly as `moniotr` prints it to stdout, so
// a recorded digest can be checked against the CLI with sha256sum.
type goldenShape struct {
	name         string
	scale        string
	json         bool
	workers      int
	reshape      string
	faults       string
	uncontrolled bool
	// ingest, when set, replays the exported tiny campaign with these
	// options instead of synthesizing.
	ingest *ingest.Options
}

var goldenShapes = []goldenShape{
	{name: "tiny-w1", scale: "tiny", workers: 1, uncontrolled: true},
	{name: "tiny-w2", scale: "tiny", workers: 2, uncontrolled: true},
	{name: "quick-json-w5", scale: "quick", json: true, workers: 5, uncontrolled: true},
	{name: "quick", scale: "quick", uncontrolled: true},
	{name: "tiny-reshape-pad-shape", scale: "tiny", reshape: "pad,shape", uncontrolled: true},
	{name: "tiny-faults-lossy-home-w3", scale: "tiny", faults: "lossy-home", workers: 3, uncontrolled: true},
	{name: "tiny-export", scale: "tiny"},
	{name: "ingest-buffered-w1", workers: 1, ingest: &ingest.Options{}},
	{name: "ingest-buffered-w2", workers: 2, ingest: &ingest.Options{}},
	{name: "ingest-two-pass-w5", workers: 5, ingest: &ingest.Options{Stream: true, TwoPass: true}},
	{name: "ingest-single-decode-w2", workers: 2, ingest: &ingest.Options{Stream: true}},
}

// TestReportGoldens pins the rendered report of every delivery shape to
// a SHA-256 digest recorded before the collectors moved onto one
// execution model (testdata/report_goldens.txt, "name digest" per
// line). The digests are never regenerated: a mismatch means some
// delivery shape changed a report byte.
func TestReportGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns skipped in -short")
	}
	want := readGoldens(t, "testdata/report_goldens.txt")
	capDir := t.TempDir()
	for _, sh := range goldenShapes {
		got := sha256.Sum256(renderGoldenShape(t, sh, capDir))
		if w, ok := want[sh.name]; !ok {
			t.Errorf("%s: no recorded digest (got %s)", sh.name, hex.EncodeToString(got[:]))
		} else if hex.EncodeToString(got[:]) != w {
			t.Errorf("%s: report digest %s, recorded %s", sh.name, hex.EncodeToString(got[:]), w)
		}
	}
}

func readGoldens(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// renderGoldenShape runs one shape and returns its report as moniotr
// would print it. The "tiny-export" shape also writes its campaign to
// capDir, which the ingest shapes after it replay.
func renderGoldenShape(t *testing.T, sh goldenShape, capDir string) []byte {
	t.Helper()
	var (
		study *Study
		src   *ingest.Source
	)
	if sh.ingest != nil {
		var err error
		if src, err = ingest.Open(capDir, *sh.ingest); err != nil {
			t.Fatal(err)
		}
		study = NewStudyFromSource(src)
	} else {
		cfg, err := ScaleConfig(sh.scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultProfile = sh.faults
		cfg.Reshape = sh.reshape
		cfg.ReshapeBudget = 0.25 // moniotr's -reshape-budget default
		if study, err = NewStudy(cfg); err != nil {
			t.Fatal(err)
		}
	}
	study.SetAnalysisWorkers(sh.workers)
	study.Run()
	if sh.name == "tiny-export" {
		if err := ingest.Export(capDir, study.Pipeline().Runner()); err != nil {
			t.Fatal(err)
		}
	}
	if sh.uncontrolled {
		if err := study.RunUncontrolled(); err != nil {
			t.Fatal(err)
		}
	}
	doc := study.ReportDocument()
	if src != nil {
		if lt := src.Report().LabelTable(); lt != nil {
			doc.Add("ingest-labels", lt)
		}
	}
	var buf bytes.Buffer
	if sh.json {
		if err := doc.RenderJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, e := range doc.Entries {
		if err := e.Table.Render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
