package pii

import (
	"fmt"
	"math/rand"
	"testing"
)

var (
	matchSink   []Match
	scannerSink *Scanner
)

// BenchmarkScan measures one pass of the automaton over the two payload
// shapes the content collector sees: ciphertext, which matches nothing
// and must not allocate, and a textual key=value message with one
// leaked identifier.
func BenchmarkScan(b *testing.B) {
	s := NewScanner(corpus())
	cipher := make([]byte, 1400)
	rand.New(rand.NewSource(3)).Read(cipher)
	text := []byte("cmd=status&seq=4711&state=on&rssi=-52&uptime=86400&mac=74:DA:38:1B:20:01&")
	for len(text) < 600 {
		text = append(text, fmt.Sprintf("pad%d=%d&", len(text), len(text)%10)...)
	}
	for _, bc := range []struct {
		name    string
		payload []byte
		matches int
	}{
		{"ciphertext-nomatch", cipher, 0},
		{"textual-onematch", text, 1},
	} {
		if got := len(s.Scan(bc.payload)); got != bc.matches {
			b.Fatalf("%s: %d matches, want %d", bc.name, got, bc.matches)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matchSink = s.Scan(bc.payload)
			}
		})
	}
}

// BenchmarkNewScanner is the compile cost paid once per device instance
// and collector, which fleet runs pay again in every home.
func BenchmarkNewScanner(b *testing.B) {
	c := corpus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scannerSink = NewScanner(c)
	}
}
