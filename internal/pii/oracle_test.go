package pii

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"math/rand"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// oracleScanner is the scanner this package shipped before the
// automaton: it lower-cases a copy of the payload with strings.ToLower
// and runs one strings.Index per needle. The automaton must report the
// same matches in the same order.
type oracleScanner struct {
	needles []oracleNeedle
}

type oracleNeedle struct {
	item     Item
	encoding string
	bytes    string // lower-cased needle
}

func newOracle(c *Corpus) *oracleScanner {
	s := &oracleScanner{}
	for _, it := range c.items {
		add := func(encoding, v string) {
			if len(v) < 4 {
				return
			}
			s.needles = append(s.needles, oracleNeedle{item: it, encoding: encoding, bytes: strings.ToLower(v)})
		}
		v := it.Value
		add("plain", v)
		add("base64", base64.StdEncoding.EncodeToString([]byte(v)))
		add("base64url", base64.URLEncoding.EncodeToString([]byte(v)))
		add("hex", hex.EncodeToString([]byte(v)))
		if esc := url.QueryEscape(v); esc != v {
			add("urlescape", esc)
		}
		if it.Kind == KindMAC {
			add("nocolon", strings.ReplaceAll(v, ":", ""))
			add("dashes", strings.ReplaceAll(v, ":", "-"))
		}
		if strings.Contains(v, " ") {
			add("plusjoined", strings.ReplaceAll(v, " ", "+"))
			add("concat", strings.ReplaceAll(v, " ", ""))
		}
	}
	sort.SliceStable(s.needles, func(i, j int) bool {
		return len(s.needles[i].bytes) > len(s.needles[j].bytes)
	})
	return s
}

func (s *oracleScanner) Scan(payload []byte) []Match {
	if len(payload) == 0 || len(s.needles) == 0 {
		return nil
	}
	hay := strings.ToLower(string(payload))
	seen := make(map[string]bool)
	var out []Match
	for _, n := range s.needles {
		idx := strings.Index(hay, n.bytes)
		if idx < 0 {
			continue
		}
		key := string(n.item.Kind) + "\x00" + n.item.Value + "\x00" + n.encoding
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Match{Item: n.item, Encoding: n.encoding, Offset: idx})
	}
	return out
}

// text returns the lower-cased needle text of the match's (item,
// encoding).
func (s *oracleScanner) text(m Match) string {
	for _, n := range s.needles {
		if n.item == m.Item && n.encoding == m.Encoding {
			return n.bytes
		}
	}
	return ""
}

// asciiOnly reports whether every byte is a one-byte UTF-8 rune, the
// payloads on which the oracle's offsets are raw payload offsets.
func asciiOnly(p []byte) bool {
	for _, b := range p {
		if b >= 0x80 {
			return false
		}
	}
	return true
}

// foldsOntoASCII reports whether the payload holds one of the two runes
// strings.ToLower maps onto an ASCII letter, where the oracle's Unicode
// folding deliberately differs from the scanner's ASCII folding.
func foldsOntoASCII(p []byte) bool {
	return bytes.Contains(p, []byte("\u212A")) || bytes.Contains(p, []byte("\u0130"))
}

// checkAgainstOracle compares one scan with the oracle: the same
// matches in the same order always, the same offsets on ASCII payloads,
// and on every payload each offset must point at the needle text.
func checkAgainstOracle(t *testing.T, s *Scanner, o *oracleScanner, payload []byte) {
	t.Helper()
	got := s.Scan(payload)
	for _, m := range got {
		want := o.text(m)
		if m.Offset < 0 || m.Offset+len(want) > len(payload) ||
			!bytes.EqualFold(payload[m.Offset:m.Offset+len(want)], []byte(want)) {
			t.Fatalf("payload %q: match %+v does not point at %q", payload, m, want)
		}
	}
	if foldsOntoASCII(payload) {
		return
	}
	want := o.Scan(payload)
	if !asciiOnly(payload) {
		for i := range want {
			want[i].Offset = 0
		}
		got = append([]Match(nil), got...)
		for i := range got {
			got[i].Offset = 0
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q:\n got %+v\nwant %+v", payload, got, want)
	}
}

// randomCorpus draws ASCII values from a few short syllables, so needles
// often overlap, nest inside each other and share prefixes.
func randomCorpus(rng *rand.Rand) *Corpus {
	syllables := []string{"ab", "Ba", "c:d", "a b", "9f", "x-", "ja", "ne", "@e", "+1", "%", "Q"}
	kinds := []Kind{KindMAC, KindName, KindEmail, KindUUID, KindSerial, KindDeviceName}
	c := NewCorpus()
	for n := 1 + rng.Intn(6); n > 0; n-- {
		var v strings.Builder
		for k := 1 + rng.Intn(5); k > 0; k-- {
			v.WriteString(syllables[rng.Intn(len(syllables))])
		}
		c.Add(kinds[rng.Intn(len(kinds))], v.String())
	}
	if rng.Intn(4) == 0 && c.Len() > 0 { // a repeated item
		it := c.items[rng.Intn(c.Len())]
		c.Add(it.Kind, it.Value)
	}
	return c
}

// randomCase upper-cases a random subset of the ASCII letters in s.
func randomCase(rng *rand.Rand, s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' && rng.Intn(2) == 0 {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// randomPayload concatenates random bytes, random text and planted
// needles in every encoding the oracle knows, in random case.
func randomPayload(rng *rand.Rand, o *oracleScanner, binary bool) []byte {
	var p []byte
	for k := rng.Intn(6); k >= 0; k-- {
		switch r := rng.Intn(3); {
		case r == 0 && len(o.needles) > 0:
			p = append(p, randomCase(rng, o.needles[rng.Intn(len(o.needles))].bytes)...)
		case binary:
			for n := rng.Intn(12); n > 0; n-- {
				p = append(p, byte(rng.Intn(256)))
			}
		default:
			const alphabet = "abBAc:d 9fx-jane@+1%Q=&"
			for n := rng.Intn(12); n > 0; n-- {
				p = append(p, alphabet[rng.Intn(len(alphabet))])
			}
		}
	}
	return p
}

func TestScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		c := randomCorpus(rng)
		s, o := NewScanner(c), newOracle(c)
		for j := 0; j < 10; j++ {
			checkAgainstOracle(t, s, o, randomPayload(rng, o, j%2 == 1))
		}
		// Needles at the very start and the very end.
		if len(o.needles) > 0 {
			first := o.needles[rng.Intn(len(o.needles))].bytes
			last := o.needles[rng.Intn(len(o.needles))].bytes
			checkAgainstOracle(t, s, o, []byte(randomCase(rng, first)+"~"+randomCase(rng, last)))
			checkAgainstOracle(t, s, o, []byte(first+last))
		}
	}
}

func TestScanMatchesOracleOnCatalogShapes(t *testing.T) {
	s, o := NewScanner(corpus()), newOracle(corpus())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		checkAgainstOracle(t, s, o, randomPayload(rng, o, i%2 == 0))
	}
}

func FuzzScan(f *testing.F) {
	f.Add([]byte(`{"mac":"74:da:38:1b:20:01","fw":"2.0"}`))
	f.Add([]byte("GET /reg?owner=Jane+Doe HTTP/1.1"))
	f.Add([]byte("\xff\xfeJANE.DOE@EXAMPLE.COM"))
	f.Add([]byte("amFuZS5kb2VAZXhhbXBsZS5jb20=74DA381B2001"))
	f.Add([]byte("ab:ab:abab c:dc:d"))
	c := corpus()
	c.Add(KindUsername, "abab")
	c.Add(KindSerial, "ab:ab:ab")
	c.Add(KindGeo, "c:d c:d")
	s, o := NewScanner(c), newOracle(c)
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkAgainstOracle(t, s, o, payload)
	})
}
