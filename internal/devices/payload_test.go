package devices

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// sprintfTextualPayload is textualPayload as it was first written, with
// fmt.Sprintf and string concatenation: the byte-for-byte reference
// for the scratch-buffer version, including the order of RNG draws.
func sprintfTextualPayload(rng *rand.Rand, size int, leak string, first bool) []byte {
	if size < 16 {
		size = 16
	}
	msg := fmt.Sprintf("cmd=status&seq=%d&state=on&rssi=-%d&uptime=%d&",
		rng.Intn(10000), 30+rng.Intn(40), rng.Intn(100000))
	if first && leak != "" {
		msg = leak + "&" + msg
	}
	for len(msg) < size {
		msg += fmt.Sprintf("pad%d=%d&", len(msg), rng.Intn(10))
	}
	return []byte(msg[:size])
}

func TestTextualPayloadMatchesSprintf(t *testing.T) {
	g := &Gen{Env: &Env{Rng: rand.New(rand.NewSource(5))}}
	ref := rand.New(rand.NewSource(5))
	sizes := rand.New(rand.NewSource(6))
	leaks := []string{"", "mac=74:da:38:1b:20:01", "email=jane.doe%40moniotrlab.example&name=Jane+Doe&city=Boston%2C+MA"}
	for i := 0; i < 5000; i++ {
		size := sizes.Intn(1600) - 20
		leak := leaks[sizes.Intn(len(leaks))]
		first := sizes.Intn(2) == 0
		got := g.textualPayload(size, leak, first)
		want := sprintfTextualPayload(ref, size, leak, first)
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d leak %q first %v:\n got %q\nwant %q", size, leak, first, got, want)
		}
	}
	// The RNG streams must still be in lock-step.
	if a, b := g.Env.Rng.Int63(), ref.Int63(); a != b {
		t.Fatalf("RNG draws diverged: %d vs %d", a, b)
	}
}

// The PII scanner folds case in ASCII only, so every catalog corpus —
// and every leak template it is matched against — must be ASCII.
func TestCatalogCorporaASCII(t *testing.T) {
	isASCII := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if s[i] >= 0x80 {
				return false
			}
		}
		return true
	}
	for _, p := range ExtendedCatalog() {
		for _, lab := range []string{LabUS, LabUK} {
			for _, it := range NewInstance(p, lab).PII.Items() {
				if !isASCII(it.Value) {
					t.Errorf("%s/%s: %s value %q is not ASCII", p.Name, lab, it.Kind, it.Value)
				}
			}
		}
		for _, l := range p.PII {
			if !isASCII(l.Template) {
				t.Errorf("%s: leak template %q is not ASCII", p.Name, l.Template)
			}
		}
	}
}

var payloadSink []byte

func BenchmarkTextualPayload(b *testing.B) {
	g := &Gen{Env: &Env{Rng: rand.New(rand.NewSource(1))}}
	const size = 600
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payloadSink = g.textualPayload(size, "mac=74:da:38:1b:20:01", i%8 == 0)
	}
}
