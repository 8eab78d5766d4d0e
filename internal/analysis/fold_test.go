package analysis

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// A fold unit lives from its first Fold until the merge, which on a
// large capture tree is the end of the decode pass. It must keep only
// its accumulators, never the packets of the experiments it folded:
// every packet must be collectable while the unit is still alive.
func TestFoldUnitDoesNotPinPackets(t *testing.T) {
	us, _, in := labPair(t)
	p := NewPipeline(&replaySource{internet: in})
	sink := &foldSink{p: p}
	ctl := sink.NewFoldUnit(true)
	idle := sink.NewFoldUnit(false)

	var tracked, freed atomic.Int64
	// track re-homes every packet in its own allocation and counts the
	// allocation's collection.
	track := func(exp *testbed.Experiment) *testbed.Experiment {
		for i, pk := range exp.Packets {
			q := new(netx.Packet)
			*q = *pk
			runtime.SetFinalizer(q, func(*netx.Packet) { freed.Add(1) })
			exp.Packets[i] = q
			tracked.Add(1)
		}
		return exp
	}
	for _, name := range []string{"Echo Dot", "TP-Link Plug", "Samsung TV"} {
		slot, ok := us.Slot(name)
		if !ok {
			t.Fatalf("no slot for %s", name)
		}
		ctl.Fold(track(us.RunPower(slot, false, testbed.StudyEpoch, 0)))
		idle.Fold(track(us.RunIdle(slot, false, testbed.StudyEpoch, 20*time.Minute, 0)))
	}
	if tracked.Load() == 0 {
		t.Fatal("no packets synthesized")
	}

	for i := 0; i < 50 && freed.Load() < tracked.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := freed.Load(), tracked.Load(); got != want {
		t.Errorf("%d of %d folded packets still reachable from live fold units", want-got, want)
	}

	// Merging after the GC loop keeps the units alive through it.
	sink.MergeFoldUnit(true, ctl)
	sink.MergeFoldUnit(false, idle)
	if _, ok := p.Enc.DeviceShare("Echo Dot", "US", EncEncrypted); !ok {
		t.Error("merged enc collector saw no Echo Dot traffic")
	}
}
