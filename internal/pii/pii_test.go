package pii

import (
	"encoding/base64"
	"encoding/hex"
	"testing"
)

func corpus() *Corpus {
	return NewCorpus(
		Item{KindMAC, "74:da:38:1b:20:01"},
		Item{KindEmail, "jane.doe@example.com"},
		Item{KindName, "Jane Doe"},
		Item{KindPassword, "hunter2secret"},
		Item{KindDeviceName, "Jane Doe's Roku TV"},
	)
}

func TestScanPlain(t *testing.T) {
	s := NewScanner(corpus())
	matches := s.Scan([]byte(`{"mac":"74:da:38:1b:20:01","fw":"2.0"}`))
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].Item.Kind != KindMAC || matches[0].Encoding != "plain" {
		t.Errorf("match: %+v", matches[0])
	}
}

func TestScanCaseInsensitive(t *testing.T) {
	s := NewScanner(corpus())
	matches := s.Scan([]byte("MAC=74:DA:38:1B:20:01"))
	if len(matches) == 0 {
		t.Fatal("uppercase MAC not matched")
	}
}

func TestScanNoColonMAC(t *testing.T) {
	s := NewScanner(corpus())
	matches := s.Scan([]byte("id=74da381b2001&type=cam"))
	found := false
	for _, m := range matches {
		if m.Item.Kind == KindMAC && m.Encoding == "nocolon" {
			found = true
		}
	}
	if !found {
		t.Fatalf("nocolon MAC not detected: %+v", matches)
	}
}

func TestScanBase64(t *testing.T) {
	s := NewScanner(corpus())
	enc := base64.StdEncoding.EncodeToString([]byte("jane.doe@example.com"))
	matches := s.Scan([]byte("payload=" + enc))
	found := false
	for _, m := range matches {
		if m.Item.Kind == KindEmail && m.Encoding == "base64" {
			found = true
		}
	}
	if !found {
		t.Fatalf("base64 email not detected: %+v", matches)
	}
}

func TestScanHex(t *testing.T) {
	s := NewScanner(corpus())
	enc := hex.EncodeToString([]byte("hunter2secret"))
	matches := s.Scan([]byte(enc))
	found := false
	for _, m := range matches {
		if m.Item.Kind == KindPassword && m.Encoding == "hex" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hex password not detected: %+v", matches)
	}
}

func TestScanURLEscapedName(t *testing.T) {
	s := NewScanner(corpus())
	matches := s.Scan([]byte("GET /reg?owner=Jane+Doe HTTP/1.1"))
	found := false
	for _, m := range matches {
		if m.Item.Kind == KindName {
			found = true
		}
	}
	if !found {
		t.Fatalf("plus-joined name not detected: %+v", matches)
	}
}

func TestScanNoFalsePositive(t *testing.T) {
	s := NewScanner(corpus())
	if matches := s.Scan([]byte("totally benign telemetry payload 12345")); len(matches) != 0 {
		t.Fatalf("false positives: %+v", matches)
	}
	if matches := s.Scan(nil); matches != nil {
		t.Fatal("nil payload should yield nil")
	}
}

func TestScanDeduplicates(t *testing.T) {
	s := NewScanner(corpus())
	payload := []byte("74:da:38:1b:20:01 ... 74:da:38:1b:20:01")
	matches := s.Scan(payload)
	plainCount := 0
	for _, m := range matches {
		if m.Item.Kind == KindMAC && m.Encoding == "plain" {
			plainCount++
		}
	}
	if plainCount != 1 {
		t.Fatalf("plain MAC reported %d times", plainCount)
	}
}

func TestCorpusSkipsEmpty(t *testing.T) {
	c := NewCorpus(Item{KindEmail, "  "}, Item{KindEmail, "x@y.zz"})
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Add(KindName, "")
	if c.Len() != 1 {
		t.Fatalf("Len after empty Add = %d", c.Len())
	}
	c.Add(KindName, "Ann")
	if c.Len() != 2 {
		t.Fatalf("Len after Add = %d", c.Len())
	}
}

func TestShortValuesNotSearched(t *testing.T) {
	c := NewCorpus(Item{KindUsername, "ab"}) // 2 chars: too short
	s := NewScanner(c)
	if matches := s.Scan([]byte("abababab")); len(matches) != 0 {
		t.Fatalf("short needle matched: %+v", matches)
	}
}

func TestKindsFound(t *testing.T) {
	matches := []Match{
		{Item: Item{KindMAC, "m"}, Encoding: "plain"},
		{Item: Item{KindMAC, "m"}, Encoding: "hex"},
		{Item: Item{KindEmail, "e"}, Encoding: "plain"},
	}
	kinds := KindsFound(matches)
	if len(kinds) != 2 {
		t.Fatalf("kinds = %v", kinds)
	}
	if kinds[0] != KindEmail || kinds[1] != KindMAC {
		t.Errorf("sorted kinds = %v", kinds)
	}
}

func TestScanString(t *testing.T) {
	s := NewScanner(corpus())
	if len(s.ScanString("name: jane doe's roku tv")) == 0 {
		t.Fatal("device name not found via ScanString")
	}
}

func TestOffsetReported(t *testing.T) {
	s := NewScanner(NewCorpus(Item{KindUUID, "abcd-1234"}))
	matches := s.Scan([]byte("xxxxabcd-1234"))
	if len(matches) != 1 || matches[0].Offset != 4 {
		t.Fatalf("matches: %+v", matches)
	}
}

func TestOffsetIsRawPayloadOffset(t *testing.T) {
	s := NewScanner(corpus())
	// Invalid UTF-8 ahead of the match must not shift the offset.
	matches := s.Scan([]byte("\xff\xfeJANE.DOE@EXAMPLE.COM"))
	if len(matches) != 1 || matches[0].Item.Kind != KindEmail || matches[0].Offset != 2 {
		t.Fatalf("matches: %+v", matches)
	}
}

// Case folding is ASCII only: the two non-ASCII runes whose Unicode
// lower case is an ASCII letter (KELVIN SIGN, LATIN CAPITAL LETTER I
// WITH DOT ABOVE) do not stand in for 'k' and 'i'.
func TestScanFoldsASCIIOnly(t *testing.T) {
	s := NewScanner(NewCorpus(Item{KindUsername, "kelvin"}, Item{KindSSID, "wifi"}))
	for _, p := range []string{"u=\u212Aelvin", "ssid=WIF\u0130"} {
		if m := s.ScanString(p); len(m) != 0 {
			t.Errorf("%q matched %+v", p, m)
		}
	}
	if m := s.ScanString("u=KELVIN&ssid=WiFi"); len(m) != 2 {
		t.Errorf("ASCII case variants: %+v", m)
	}
}

func TestScanNoMatchAllocatesNothing(t *testing.T) {
	s := NewScanner(corpus())
	payload := []byte("totally benign telemetry payload 12345 \x00\xff\x10 jane-doe 74:da:38")
	if allocs := testing.AllocsPerRun(100, func() { s.Scan(payload) }); allocs != 0 {
		t.Fatalf("no-match scan allocated %.1f times", allocs)
	}
}
