package intliot

import (
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/ingest"
)

// Per-collector timing comes from the fold units, so every delivery
// shape reports it: synthesis and single-decode ingest both count one
// visit per delivered experiment for each collector that sees it, spend
// measurable time in each, and render the same report with and without
// a registry attached.
func TestCollectorVisitMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns skipped in -short")
	}
	newSynth := func() *Study {
		s, err := NewStudy(tinyFaultConfig("", 0))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := newSynth()
	plain.Run()
	timed := newSynth()
	reg := NewMetrics()
	timed.SetObs(reg)
	timed.Run()
	if renderAll(timed) != renderAll(plain) {
		t.Error("synthesis: attaching a registry changed the report")
	}
	checkCollectorVisits(t, "synthesis", reg, timed)

	dir := t.TempDir()
	if err := ingest.Export(dir, plain.Pipeline().Runner()); err != nil {
		t.Fatal(err)
	}
	newIngest := func() *Study {
		src, err := ingest.Open(dir, ingest.Options{Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		return NewStudyFromSource(src)
	}
	plain = newIngest()
	plain.Run()
	timed = newIngest()
	reg = NewMetrics()
	timed.SetObs(reg)
	timed.Run()
	if passes := reg.Counter("ingest_decode_passes_total").Value(); passes != 1 {
		t.Fatalf("ingest ran %d decode passes, want the single-decode pass", passes)
	}
	if renderAll(timed) != renderAll(plain) {
		t.Error("single-decode ingest: attaching a registry changed the report")
	}
	checkCollectorVisits(t, "single-decode ingest", reg, timed)
}

func checkCollectorVisits(t *testing.T, shape string, reg *Metrics, s *Study) {
	t.Helper()
	p := s.Pipeline()
	ctl, idle := int64(p.Stats.Experiments), int64(p.IdleStats.Experiments)
	if ctl == 0 || idle == 0 {
		t.Fatalf("%s: campaign has %d controlled and %d idle experiments", shape, ctl, idle)
	}
	for name, want := range map[string]int64{
		"degrade": ctl + idle, "dest": ctl + idle, "enc": ctl + idle,
		"content": ctl, "identify": ctl, "idle_capture": idle,
	} {
		if got := reg.Counter("collector_visits." + name).Value(); got != want {
			t.Errorf("%s: collector_visits.%s = %d, want %d", shape, name, got, want)
		}
		if ns := reg.Counter("collector_visit_ns." + name).Value(); ns <= 0 {
			t.Errorf("%s: collector_visit_ns.%s = %d, want > 0", shape, name, ns)
		}
	}
}
