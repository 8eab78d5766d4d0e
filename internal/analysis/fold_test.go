package analysis

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
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

// A fold unit sees none of the DNS answers before its run. A flow whose
// address only an earlier run resolved must still be labelled with that
// answer, as a serial visit would label it, not with its SNI/Host
// fallback or the address's registered owner.
func TestFoldDefersCrossRunDNS(t *testing.T) {
	// stream synthesizes a power cycle and an idle window for a few
	// devices, stripping the idle window's DNS answers so its flows can
	// only be named from the power cycle's.
	stream := func() ([]*testbed.Experiment, *cloud.Internet) {
		us, _, in := labPair(t)
		var exps []*testbed.Experiment
		for _, name := range []string{"Echo Dot", "Samsung TV", "TP-Link Plug"} {
			slot, ok := us.Slot(name)
			if !ok {
				t.Fatalf("no slot for %s", name)
			}
			exps = append(exps, us.RunPower(slot, false, testbed.StudyEpoch, 0))
			idle := us.RunIdle(slot, false, testbed.StudyEpoch.Add(time.Hour), 30*time.Minute, 0)
			kept := idle.Packets[:0]
			for _, pk := range idle.Packets {
				if pk.UDP == nil || pk.UDP.SrcPort != 53 {
					kept = append(kept, pk)
				}
			}
			idle.Packets = kept
			exps = append(exps, idle)
		}
		return exps, in
	}

	exps, in := stream()
	serial := NewPipeline(&replaySource{internet: in})
	for _, exp := range exps {
		serial.degradeExp(exp)
		serial.Dest.Visit(exp)
	}

	exps, in = stream()
	p := NewPipeline(&replaySource{internet: in})
	sink := &foldSink{p: p}
	for _, exp := range exps {
		u := sink.NewFoldUnit(true)
		u.Fold(exp)
		sink.MergeFoldUnit(true, u)
	}
	if !reflect.DeepEqual(p.Dest.devAllDest, serial.Dest.devAllDest) ||
		!reflect.DeepEqual(p.Dest.byExpParty, serial.Dest.byExpParty) ||
		!reflect.DeepEqual(p.Dest.volume, serial.Dest.volume) {
		t.Errorf("one unit per experiment labels destinations differently from a serial visit:\nfold   %v\nserial %v",
			p.Dest.devAllDest, serial.Dest.devAllDest)
	}
}
