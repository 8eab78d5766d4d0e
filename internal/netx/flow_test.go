package netx

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

func flowPacket(ts time.Time, src, dst string, sport, dport uint16, payload []byte) *Packet {
	p := &Packet{
		Meta: CaptureInfo{Timestamp: ts, Length: EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + len(payload)},
		Eth:  Ethernet{EtherType: EtherTypeIPv4},
		IPv4: &IPv4{TTL: 64, Protocol: ProtoTCP,
			Src: MustParseAddr(src), Dst: MustParseAddr(dst)},
		TCP:     &TCP{SrcPort: sport, DstPort: dport, Flags: TCPAck},
		Payload: payload,
	}
	return p
}

func TestFlowKeyCanonical(t *testing.T) {
	a := Endpoint{Addr: MustParseAddr("192.168.10.15"), Port: 49152}
	b := Endpoint{Addr: MustParseAddr("52.1.2.3"), Port: 443}
	k1 := NewFlowKey(a, b, ProtoTCP)
	k2 := NewFlowKey(b, a, ProtoTCP)
	if k1 != k2 {
		t.Fatalf("flow keys not symmetric: %v vs %v", k1, k2)
	}
}

func TestFlowAssembly(t *testing.T) {
	base := testTime
	tbl := NewFlowTable()
	tbl.Add(flowPacket(base, "192.168.10.15", "52.1.2.3", 49152, 443, []byte("req1")))
	tbl.Add(flowPacket(base.Add(10*time.Millisecond), "52.1.2.3", "192.168.10.15", 443, 49152, []byte("resp1long")))
	tbl.Add(flowPacket(base.Add(20*time.Millisecond), "192.168.10.15", "52.1.2.3", 49152, 443, []byte("req2")))

	flows := tbl.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	f := flows[0]
	if f.Initiator.Port != 49152 {
		t.Errorf("initiator = %v", f.Initiator)
	}
	if f.BytesUp != 8 || f.BytesDown != 9 {
		t.Errorf("bytes up/down = %d/%d", f.BytesUp, f.BytesDown)
	}
	if f.PacketsUp != 2 || f.PacketsDown != 1 {
		t.Errorf("packets up/down = %d/%d", f.PacketsUp, f.PacketsDown)
	}
	if f.Duration() != 20*time.Millisecond {
		t.Errorf("duration = %v", f.Duration())
	}
	if got := f.PayloadUp(0); !bytes.Equal(got, []byte("req1req2")) {
		t.Errorf("PayloadUp = %q", got)
	}
	if got := f.PayloadDown(4); !bytes.Equal(got, []byte("resp")) {
		t.Errorf("PayloadDown(4) = %q", got)
	}
}

func TestFlowTableSeparatesConversations(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49152, 443, nil))
	tbl.Add(flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49153, 443, nil))
	tbl.Add(flowPacket(testTime, "192.168.10.16", "52.1.2.3", 49152, 443, nil))
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
}

func TestFlowTableIgnoresARP(t *testing.T) {
	tbl := NewFlowTable()
	arp := &Packet{
		Eth: Ethernet{EtherType: EtherTypeARP},
		ARP: &ARP{Op: ARPRequest},
	}
	if f := tbl.Add(arp); f != nil {
		t.Fatal("ARP packet should not create a flow")
	}
}

func TestSortPacketsByTime(t *testing.T) {
	p1 := flowPacket(testTime.Add(time.Second), "192.168.10.15", "52.1.2.3", 1, 2, nil)
	p2 := flowPacket(testTime, "192.168.10.15", "52.1.2.3", 1, 2, nil)
	pkts := []*Packet{p1, p2}
	SortPacketsByTime(pkts)
	if pkts[0] != p2 {
		t.Fatal("packets not sorted by time")
	}
}

func TestAssembleFlows(t *testing.T) {
	pkts := []*Packet{
		flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49152, 443, []byte("a")),
		flowPacket(testTime, "192.168.10.15", "8.8.8.8", 5353, 53, nil),
	}
	flows := AssembleFlows(pkts)
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
}

// AppendPayloads must return, byte for byte, what PayloadUp and
// PayloadDown return for the same limit: with caps that cut a packet
// mid-payload, zero-length payloads, packets without a network layer
// (which count as upstream) and non-empty destination buffers.
func TestAppendPayloadsMatchesPayloadDir(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	init := Endpoint{Addr: MustParseAddr("192.168.10.15"), Port: 49152}
	resp := Endpoint{Addr: MustParseAddr("52.1.2.3"), Port: 443}
	for i := 0; i < 500; i++ {
		f := &Flow{Initiator: init, Responder: resp}
		total := 0
		for j := rng.Intn(12); j > 0; j-- {
			payload := make([]byte, rng.Intn(4)*rng.Intn(700))
			rng.Read(payload)
			total += len(payload)
			switch rng.Intn(5) {
			case 0:
				f.Packets = append(f.Packets, &Packet{Eth: Ethernet{EtherType: EtherTypeARP}, Payload: payload})
			case 1, 2:
				f.Packets = append(f.Packets, flowPacket(testTime, "52.1.2.3", "192.168.10.15", 443, 49152, payload))
			default:
				f.Packets = append(f.Packets, flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49152, 443, payload))
			}
		}
		limits := []int{0, -1, 1, total, total + 1}
		if total > 1 {
			limits = append(limits, 1+rng.Intn(total-1))
		}
		for _, limit := range limits {
			prefixUp, prefixDown := []byte("u"), []byte("dd")
			up, down := f.AppendPayloads(append([]byte(nil), prefixUp...), append([]byte(nil), prefixDown...), limit)
			wantUp := append(prefixUp, f.PayloadUp(limit)...)
			wantDown := append(prefixDown, f.PayloadDown(limit)...)
			if !bytes.Equal(up, wantUp) || !bytes.Equal(down, wantDown) {
				t.Fatalf("flow %d limit %d: AppendPayloads = %d/%d bytes, PayloadUp/Down = %d/%d",
					i, limit, len(up)-1, len(down)-2, len(wantUp)-1, len(wantDown)-2)
			}
		}
	}
}

// Reset must drop every packet reference the scratch holds, including
// those in the pooled flows' spare slice capacity.
func TestFlowScratchResetDropsPackets(t *testing.T) {
	var s FlowScratch
	big := []*Packet{
		flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49152, 443, []byte("a")),
		flowPacket(testTime, "52.1.2.3", "192.168.10.15", 443, 49152, []byte("b")),
		flowPacket(testTime, "192.168.10.15", "8.8.8.8", 5353, 53, nil),
	}
	if got := len(s.Assemble(big)); got != 2 {
		t.Fatalf("flows = %d, want 2", got)
	}
	small := big[2:]
	if got := s.Assemble(small); len(got) != 1 || len(got[0].Packets) != 1 {
		t.Fatalf("second assembly = %v", got)
	}
	s.Reset()
	if len(s.order) != 0 || len(s.flows) != 0 || s.used != 0 {
		t.Fatalf("Reset left order=%d flows=%d used=%d", len(s.order), len(s.flows), s.used)
	}
	for i, f := range s.pool {
		for j, p := range f.Packets[:cap(f.Packets)] {
			if p != nil {
				t.Errorf("pool flow %d slot %d still holds a packet", i, j)
			}
		}
	}
}

// BenchmarkAppendPayloads extracts 4 KB heads per direction from a
// 16-packet flow into reused buffers.
func BenchmarkAppendPayloads(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := &Flow{
		Initiator: Endpoint{Addr: MustParseAddr("192.168.10.15"), Port: 49152},
		Responder: Endpoint{Addr: MustParseAddr("52.1.2.3"), Port: 443},
	}
	for i := 0; i < 8; i++ {
		up, down := make([]byte, 600), make([]byte, 1400)
		rng.Read(up)
		rng.Read(down)
		f.Packets = append(f.Packets,
			flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49152, 443, up),
			flowPacket(testTime, "52.1.2.3", "192.168.10.15", 443, 49152, down))
	}
	up, down := f.AppendPayloads(nil, nil, 4096)
	b.SetBytes(int64(len(up) + len(down)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		up, down = f.AppendPayloads(up[:0], down[:0], 4096)
	}
}
