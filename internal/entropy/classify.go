package entropy

import (
	"github.com/neu-sns/intl-iot-go/internal/httpmsg"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/tlsmsg"
)

// FlowVerdict is the result of classifying one flow.
type FlowVerdict struct {
	Class Class
	// Method records how the verdict was reached: "tls", "quic", "http",
	// "dns", "ntp", "encoding:<name>", "entropy", "printable", or "empty".
	Method string
	// Entropy is the measured payload entropy when Method == "entropy".
	Entropy float64
	// Metrics is the full entropy family (Shannon, Rényi α∈{0.5,2},
	// Tsallis q=2) measured over the combined head payloads, filled for
	// every non-empty flow regardless of which method decided the class.
	Metrics Metrics
}

// headLimit caps the per-direction head payload the classifier reads.
const headLimit = 4096

// ClassifyFlow reproduces the paper's per-flow pipeline:
//
//  1. Wireshark-style protocol identification: TLS and QUIC are
//     encrypted; DNS, NTP and HTTP with textual bodies are unencrypted.
//  2. Known encodings (media/compression magic) are unencrypted media.
//  3. Otherwise classify by normalized byte entropy of the payload.
//
// It allocates fresh scratch per call; loops over many flows should
// reuse one FlowClassifier.
func ClassifyFlow(f *netx.Flow, t Thresholds) FlowVerdict {
	return new(FlowClassifier).Classify(f, t)
}

// FlowClassifier runs ClassifyFlow's pipeline over reusable scratch:
// the head payloads are copied once into its up/down buffers and
// histogrammed once, and that one histogram yields the printable share,
// the threshold metric, the verdict's Entropy and the whole Metrics
// family. A warm classifier allocates nothing per flow. The zero value
// is ready to use; not safe for concurrent use.
type FlowClassifier struct {
	up, down []byte
	counts   [256]int
}

// Classify returns the verdict ClassifyFlow(f, t) would.
func (c *FlowClassifier) Classify(f *netx.Flow, t Thresholds) FlowVerdict {
	c.up, c.down = f.AppendPayloads(c.up[:0], c.down[:0], headLimit)
	if len(c.up) == 0 && len(c.down) == 0 {
		return FlowVerdict{Class: ClassUnknown, Method: "empty"}
	}
	c.counts = [256]int{}
	n := histogram(&c.counts, c.up, c.down)
	ms := metricsFromCounts(&c.counts, n)
	v := c.decide(f, t, n, ms)
	v.Metrics = ms
	return v
}

// decide runs the decision pipeline over the non-empty head payloads in
// c.up and c.down, their joint histogram in c.counts (n bytes in total)
// and its entropy family ms.
func (c *FlowClassifier) decide(f *netx.Flow, t Thresholds, n int, ms Metrics) FlowVerdict {
	up, down := c.up, c.down
	// Step 1: protocol identification.
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
		// HTTP framing is plaintext, but bodies may be media (step 2) or
		// even encrypted blobs tunnelled over HTTP; classify the body.
		body := httpBody(up, down)
		if len(body) >= t.MinPayload {
			if enc, ok := DetectEncoding(body); ok {
				return FlowVerdict{Class: ClassMedia, Method: "encoding:" + enc}
			}
			if t.ClassifyEntropy(body) == ClassEncrypted {
				return FlowVerdict{Class: ClassEncrypted, Method: "http-encrypted-body", Entropy: Shannon(body)}
			}
		}
		return FlowVerdict{Class: ClassUnencrypted, Method: "http"}
	}

	// Step 2: encodings.
	for _, b := range [][]byte{up, down} {
		if enc, ok := DetectEncoding(b); ok {
			return FlowVerdict{Class: ClassMedia, Method: "encoding:" + enc}
		}
	}

	// Step 3: entropy over the combined payload, read off the histogram.
	if float64(printableCount(&c.counts))/float64(n) >= 0.95 {
		return FlowVerdict{Class: ClassUnencrypted, Method: "printable"}
	}
	class := ClassUnknown
	if n >= t.MinPayload {
		class = t.classOf(ms.Get(t.Metric))
	}
	return FlowVerdict{Class: class, Method: "entropy", Entropy: ms.Shannon}
}

func isQUIC(f *netx.Flow, up []byte) bool {
	if f.Key.Proto != netx.ProtoUDP {
		return false
	}
	port := f.Responder.Port
	if port != 443 && port != 80 {
		return false
	}
	// QUIC long header: first byte has the high bit set.
	return len(up) > 0 && up[0]&0x80 != 0
}

func isDNS(f *netx.Flow) bool {
	return f.Key.Proto == netx.ProtoUDP &&
		(f.Responder.Port == 53 || f.Initiator.Port == 53 ||
			f.Responder.Port == 5353 || f.Initiator.Port == 5353)
}

func isNTP(f *netx.Flow) bool {
	return f.Key.Proto == netx.ProtoUDP &&
		(f.Responder.Port == 123 || f.Initiator.Port == 123)
}

func httpBody(up, down []byte) []byte {
	if resp, err := httpmsg.ParseResponse(down); err == nil && len(resp.Body) > 0 {
		return resp.Body
	}
	if req, err := httpmsg.ParseRequest(up); err == nil && len(req.Body) > 0 {
		return req.Body
	}
	return nil
}
