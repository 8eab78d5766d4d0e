package entropy

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/httpmsg"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/tlsmsg"
)

// oracleClassifyFlow is the pre-histogram flow classifier, kept as the
// reference FlowClassifier must match bit for bit: it extracts each
// direction with PayloadUp/PayloadDown, concatenates them, and runs the
// printable scan, the threshold metric, Shannon and the metric family
// as separate passes.
func oracleClassifyFlow(f *netx.Flow, t Thresholds) FlowVerdict {
	up := f.PayloadUp(4096)
	down := f.PayloadDown(4096)
	v := oracleClassifyPayloads(f, t, up, down)
	if v.Method != "empty" {
		v.Metrics = MeasureMetrics2(up, down)
	}
	return v
}

func oracleClassifyPayloads(f *netx.Flow, t Thresholds, up, down []byte) FlowVerdict {
	head := up
	if len(head) == 0 {
		head = down
	}
	if len(head) == 0 {
		return FlowVerdict{Class: ClassUnknown, Method: "empty"}
	}
	if tlsmsg.LooksLikeTLS(up) || tlsmsg.LooksLikeTLS(down) {
		return FlowVerdict{Class: ClassEncrypted, Method: "tls"}
	}
	if isQUIC(f, up) {
		return FlowVerdict{Class: ClassEncrypted, Method: "quic"}
	}
	if isDNS(f) {
		return FlowVerdict{Class: ClassUnencrypted, Method: "dns"}
	}
	if isNTP(f) {
		return FlowVerdict{Class: ClassUnencrypted, Method: "ntp"}
	}
	if httpmsg.LooksLikeHTTPRequest(up) || httpmsg.LooksLikeHTTPResponse(down) {
		body := httpBody(up, down)
		if len(body) >= t.MinPayload {
			if enc, ok := DetectEncoding(body); ok {
				return FlowVerdict{Class: ClassMedia, Method: "encoding:" + enc}
			}
			if c := t.ClassifyEntropy(body); c == ClassEncrypted {
				return FlowVerdict{Class: ClassEncrypted, Method: "http-encrypted-body", Entropy: Shannon(body)}
			}
		}
		return FlowVerdict{Class: ClassUnencrypted, Method: "http"}
	}
	for _, b := range [][]byte{up, down} {
		if enc, ok := DetectEncoding(b); ok {
			return FlowVerdict{Class: ClassMedia, Method: "encoding:" + enc}
		}
	}
	all := append(append([]byte(nil), up...), down...)
	if IsMostlyPrintable(all, 0.95) {
		return FlowVerdict{Class: ClassUnencrypted, Method: "printable"}
	}
	return FlowVerdict{Class: t.ClassifyEntropy(all), Method: "entropy", Entropy: Shannon(all)}
}

// sameVerdict compares Class and Method exactly and every float by its
// bit pattern.
func sameVerdict(got, want FlowVerdict) bool {
	return got.Class == want.Class && got.Method == want.Method &&
		math.Float64bits(got.Entropy) == math.Float64bits(want.Entropy) &&
		math.Float64bits(got.Metrics.Shannon) == math.Float64bits(want.Metrics.Shannon) &&
		math.Float64bits(got.Metrics.RenyiHalf) == math.Float64bits(want.Metrics.RenyiHalf) &&
		math.Float64bits(got.Metrics.Renyi2) == math.Float64bits(want.Metrics.Renyi2) &&
		math.Float64bits(got.Metrics.Tsallis2) == math.Float64bits(want.Metrics.Tsallis2)
}

var allMetrics = []Metric{MetricShannon, MetricRenyiHalf, MetricRenyi2, MetricTsallis2}

// multiFlow builds one flow from alternating up/down segments, so head
// extraction crosses packet boundaries in both directions.
func multiFlow(t testing.TB, proto uint8, port uint16, ups, downs [][]byte) *netx.Flow {
	t.Helper()
	mk := func(src, dst string, sp, dp uint16, payload []byte) *netx.Packet {
		p := &netx.Packet{
			Meta: netx.CaptureInfo{Timestamp: flowTime, Length: 60 + len(payload)},
			Eth:  netx.Ethernet{EtherType: netx.EtherTypeIPv4},
			IPv4: &netx.IPv4{TTL: 64, Protocol: proto,
				Src: netx.MustParseAddr(src), Dst: netx.MustParseAddr(dst)},
			Payload: payload,
		}
		if proto == netx.ProtoTCP {
			p.TCP = &netx.TCP{SrcPort: sp, DstPort: dp, Flags: netx.TCPAck}
		} else {
			p.UDP = &netx.UDP{SrcPort: sp, DstPort: dp}
		}
		return p
	}
	tbl := netx.NewFlowTable()
	for i := 0; i < len(ups) || i < len(downs); i++ {
		if i < len(ups) {
			tbl.Add(mk("192.168.10.15", "52.1.2.3", 49152, port, ups[i]))
		}
		if i < len(downs) {
			tbl.Add(mk("52.1.2.3", "192.168.10.15", port, 49152, downs[i]))
		}
	}
	flows := tbl.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	return flows[0]
}

// payloadWithEntropy returns n bytes drawn uniformly from the first k
// symbols; k = 2^(8h) puts normalized Shannon entropy near h.
func payloadWithEntropy(rng *rand.Rand, n, k int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(0x80 + rng.Intn(k)) // high bytes: never printable, no magic
	}
	return b
}

func printableMix(n, nonPrintable int) []byte {
	b := []byte(strings.Repeat("abcdefghij", n/10+1))[:n]
	for i := 0; i < nonPrintable; i++ {
		b[n-1-i] = 0x01
	}
	return b
}

type flowCase struct {
	name      string
	proto     uint8
	port      uint16
	ups, down [][]byte
}

func differentialCases() []flowCase {
	rng := rand.New(rand.NewSource(17))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		b[0] = 0x00 // not QUIC, TLS or a magic prefix
		return b
	}
	ch := (&tlsmsg.ClientHello{ServerName: "api.example.com"}).Marshal()
	quic := random(1200)
	quic[0] = 0xc3
	ntp := make([]byte, 48)
	ntp[0] = 0x1b
	req := []byte("GET /snap HTTP/1.1\r\nHost: cam\r\n\r\n")
	resp := func(ctype string, body []byte) []byte {
		return append([]byte("HTTP/1.1 200 OK\r\nContent-Type: "+ctype+"\r\n\r\n"), body...)
	}
	cs := []flowCase{
		{"tls", netx.ProtoTCP, 443, [][]byte{ch}, [][]byte{random(900)}},
		{"tls-down-only", netx.ProtoTCP, 8443, [][]byte{{}}, [][]byte{ch}},
		{"quic", netx.ProtoUDP, 443, [][]byte{quic}, nil},
		{"dns", netx.ProtoUDP, 53, [][]byte{{0x12, 0x34, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}}, nil},
		{"mdns", netx.ProtoUDP, 5353, [][]byte{random(40)}, nil},
		{"ntp", netx.ProtoUDP, 123, [][]byte{ntp}, [][]byte{ntp}},
		{"http-media-body", netx.ProtoTCP, 80, [][]byte{req},
			[][]byte{resp("image/jpeg", append([]byte{0xff, 0xd8, 0xff, 0xe0}, random(300)...))}},
		{"http-encrypted-body", netx.ProtoTCP, 80, [][]byte{req},
			[][]byte{resp("application/octet-stream", random(600))}},
		{"http-plain-body", netx.ProtoTCP, 80, [][]byte{req},
			[][]byte{resp("text/plain", []byte(strings.Repeat("state=on;", 40)))}},
		{"http-short-body", netx.ProtoTCP, 80, [][]byte{req}, [][]byte{resp("text/plain", []byte("on"))}},
		{"http-post-body", netx.ProtoTCP, 80,
			[][]byte{append([]byte("POST /up HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n"), random(500)...)}, nil},
		{"empty", netx.ProtoTCP, 443, [][]byte{{}}, nil},
		{"empty-both", netx.ProtoTCP, 8883, [][]byte{{}, {}}, [][]byte{{}}},
		{"down-only-entropy", netx.ProtoTCP, 8883, [][]byte{{}}, [][]byte{random(700)}},
		{"ciphertext-2x4k", netx.ProtoTCP, 8883,
			[][]byte{random(1400), random(1400), random(1400), random(1400)},
			[][]byte{random(1400), random(1400), random(1400), random(1400)}},
		{"printable-text", netx.ProtoTCP, 8080, [][]byte{[]byte(strings.Repeat("hello world\r\n\t", 30))}, nil},
	}
	for _, m := range magics {
		cs = append(cs, flowCase{"magic-" + m.name, netx.ProtoTCP, 8554,
			[][]byte{append(append([]byte(nil), m.prefix...), random(200)[1:]...)}, nil})
		cs = append(cs, flowCase{"magic-down-" + m.name, netx.ProtoTCP, 8554,
			[][]byte{random(50)}, [][]byte{append(append([]byte(nil), m.prefix...), random(200)[1:]...)}})
	}
	// The 0.95 printable boundary: 1000 bytes with 50, 51 and 49
	// non-printable bytes, split across both directions.
	for _, np := range []int{49, 50, 51} {
		b := printableMix(1000, np)
		cs = append(cs, flowCase{"printable-boundary", netx.ProtoTCP, 8080,
			[][]byte{b[:400]}, [][]byte{b[400:]}})
	}
	// Entropy around the 0.4 and 0.8 cut points: k symbols give
	// entropy ≈ log2(k)/8, so k ∈ {8, 9} straddles 0.4 (0.375/0.396)
	// and k ∈ {64, 128} straddles 0.8 (0.75/0.875) on any metric.
	for _, k := range []int{7, 8, 9, 10, 64, 84, 90, 100, 128} {
		cs = append(cs, flowCase{"entropy-band", netx.ProtoTCP, 8883,
			[][]byte{payloadWithEntropy(rng, 3000, k)}, [][]byte{payloadWithEntropy(rng, 2000, k)}})
	}
	// MinPayload ± 1 on the combined head, split across directions; two
	// symbols keep entropy under 0.4 at every length, so only the
	// length decides between unknown and unencrypted.
	for _, n := range []int{1, 15, 16, 17} {
		b := payloadWithEntropy(rng, n, 2)
		cut := n / 2
		cs = append(cs, flowCase{"min-payload", netx.ProtoTCP, 8883, [][]byte{b[:cut]}, [][]byte{b[cut:]}})
	}
	return cs
}

// TestFlowClassifierMatchesOracle runs one reused FlowClassifier over
// every branch of the pipeline, under all four threshold metrics, and
// requires verdicts bit-identical to the pre-histogram oracle.
func TestFlowClassifierMatchesOracle(t *testing.T) {
	var fc FlowClassifier
	methods := map[string]bool{}
	for _, metric := range allMetrics {
		th := PaperThresholds
		th.Metric = metric
		for _, c := range differentialCases() {
			f := multiFlow(t, c.proto, c.port, c.ups, c.down)
			want := oracleClassifyFlow(f, th)
			got := fc.Classify(f, th)
			if !sameVerdict(got, want) {
				t.Errorf("%s/%s: got %+v, oracle %+v", metric, c.name, got, want)
			}
			if pub := ClassifyFlow(f, th); !sameVerdict(pub, want) {
				t.Errorf("%s/%s: ClassifyFlow %+v, oracle %+v", metric, c.name, pub, want)
			}
			methods[want.Method] = true
		}
	}
	// The cases must reach every branch, or the comparison proves less
	// than it claims.
	for _, m := range []string{"tls", "quic", "dns", "ntp", "http", "http-encrypted-body",
		"encoding:jpeg", "encoding:mp4", "printable", "entropy", "empty"} {
		if !methods[m] {
			t.Errorf("no case reached method %q", m)
		}
	}
}

// The threshold cases must land on both sides of each cut point, and
// MinPayload must decide the class at its boundary.
func TestDifferentialCasesStraddleThresholds(t *testing.T) {
	classes := map[Class]bool{}
	minUnknown := 0
	for _, c := range differentialCases() {
		if c.name != "entropy-band" && c.name != "min-payload" {
			continue
		}
		v := oracleClassifyFlow(multiFlow(t, c.proto, c.port, c.ups, c.down), PaperThresholds)
		if v.Method != "entropy" {
			t.Fatalf("%s: method %q", c.name, v.Method)
		}
		if c.name == "min-payload" && v.Class == ClassUnknown {
			minUnknown++
		}
		classes[v.Class] = true
	}
	for _, cl := range []Class{ClassEncrypted, ClassUnencrypted, ClassUnknown} {
		if !classes[cl] {
			t.Errorf("no threshold case classified %v", cl)
		}
	}
	// Lengths 1 and 15 fall below MinPayload; 16 and 17 are measured.
	if minUnknown != 2 {
		t.Errorf("min-payload cases unknown = %d, want 2", minUnknown)
	}
}

// Random flows of random shape: payload bytes from a few distributions,
// many packets per direction, heads past the 4096-byte cap.
func TestFlowClassifierMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var fc FlowClassifier
	ports := []uint16{53, 80, 123, 443, 5353, 8080, 8883}
	for i := 0; i < 400; i++ {
		seg := func() [][]byte {
			var out [][]byte
			for j := rng.Intn(6); j > 0; j-- {
				n := rng.Intn(2000)
				switch rng.Intn(3) {
				case 0:
					b := make([]byte, n)
					rng.Read(b)
					out = append(out, b)
				case 1:
					out = append(out, printableMix(n+10, rng.Intn(n/10+1)))
				default:
					out = append(out, payloadWithEntropy(rng, n, 1+rng.Intn(256)))
				}
			}
			return out
		}
		proto := uint8(netx.ProtoTCP)
		if rng.Intn(2) == 0 {
			proto = netx.ProtoUDP
		}
		ups, downs := seg(), seg()
		if len(ups) == 0 && len(downs) == 0 {
			ups = [][]byte{{}}
		}
		f := multiFlow(t, proto, ports[rng.Intn(len(ports))], ups, downs)
		th := PaperThresholds
		th.Metric = allMetrics[i%len(allMetrics)]
		if got, want := fc.Classify(f, th), oracleClassifyFlow(f, th); !sameVerdict(got, want) {
			t.Fatalf("flow %d: got %+v, oracle %+v", i, got, want)
		}
	}
}

// FuzzClassifyFlow holds FlowClassifier to the oracle on arbitrary
// payloads, transport and responder port.
func FuzzClassifyFlow(f *testing.F) {
	ch := (&tlsmsg.ClientHello{ServerName: "a.example"}).Marshal()
	f.Add(ch, []byte{}, true, uint16(443))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), []byte("HTTP/1.1 200 OK\r\n\r\n\x1f\x8b\x08\x00aaaaaaaaaaaaaaaaaaaaaa"), true, uint16(80))
	f.Add([]byte{0xc3, 1, 2, 3}, []byte(nil), false, uint16(443))
	f.Add([]byte{0x12, 0x34, 1, 0}, []byte{0x12, 0x34, 0x81, 0x80}, false, uint16(53))
	f.Add(bytes.Repeat([]byte{0x90, 0x91, 0x92}, 400), bytes.Repeat([]byte("ab"), 300), true, uint16(8883))
	f.Add([]byte{}, []byte{}, true, uint16(8883))
	var fc FlowClassifier
	f.Fuzz(func(t *testing.T, up, down []byte, tcp bool, port uint16) {
		proto := uint8(netx.ProtoUDP)
		if tcp {
			proto = netx.ProtoTCP
		}
		if port == 49152 {
			port++ // keep the two endpoints distinct
		}
		// Split each direction into two packets so head extraction
		// crosses a packet boundary.
		ups := [][]byte{up[:len(up)/2], up[len(up)/2:]}
		downs := [][]byte{down[:len(down)/2], down[len(down)/2:]}
		fl := multiFlow(t, proto, port, ups, downs)
		for _, metric := range allMetrics {
			th := PaperThresholds
			th.Metric = metric
			if got, want := fc.Classify(fl, th), oracleClassifyFlow(fl, th); !sameVerdict(got, want) {
				t.Fatalf("%s: got %+v, oracle %+v", metric, got, want)
			}
		}
	})
}

// BenchmarkClassifyFlow measures one warm FlowClassifier on a TLS flow,
// a printable-text flow and a 2×4 KB ciphertext flow (the entropy path
// at the head cap).
func BenchmarkClassifyFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	random := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		p[0] = 0x00
		return p
	}
	ch := (&tlsmsg.ClientHello{ServerName: "api.example.com"}).Marshal()
	text := []byte(strings.Repeat("{\"state\":\"on\",\"rssi\":-61}\r\n", 50))
	cases := []struct {
		name string
		flow *netx.Flow
	}{
		{"tls", multiFlow(b, netx.ProtoTCP, 443, [][]byte{ch, random(1200)}, [][]byte{random(1400), random(1400)})},
		{"printable", multiFlow(b, netx.ProtoTCP, 8080, [][]byte{text}, [][]byte{text[:700]})},
		{"ciphertext-2x4k", multiFlow(b, netx.ProtoTCP, 8883,
			[][]byte{random(1400), random(1400), random(1400)},
			[][]byte{random(1400), random(1400), random(1400)})},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var fc FlowClassifier
			up, down := c.flow.PayloadUp(4096), c.flow.PayloadDown(4096)
			b.SetBytes(int64(len(up) + len(down)))
			fc.Classify(c.flow, PaperThresholds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkVerdict = fc.Classify(c.flow, PaperThresholds)
			}
		})
	}
}

var sinkVerdict FlowVerdict
