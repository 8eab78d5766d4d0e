package pii

import (
	"encoding/base64"
	"encoding/hex"
	"math"
	"net/url"
	"sort"
	"strings"
)

// Kind categorizes a PII item, mirroring §2.1's "stored data" taxonomy.
type Kind string

const (
	KindMAC        Kind = "mac_address"
	KindUUID       Kind = "uuid"
	KindDeviceID   Kind = "device_id"
	KindSerial     Kind = "serial_number"
	KindName       Kind = "person_name"
	KindEmail      Kind = "email"
	KindAddress    Kind = "postal_address"
	KindPhone      Kind = "phone_number"
	KindUsername   Kind = "username"
	KindPassword   Kind = "password"
	KindGeo        Kind = "geolocation"
	KindDeviceName Kind = "device_name" // user-specified, e.g. "John Doe's Roku TV"
	KindSSID       Kind = "wifi_ssid"
)

// Item is one piece of PII to look for.
type Item struct {
	Kind  Kind
	Value string
}

// Corpus is the set of PII known for a device (the testbed knows ground
// truth because it created the accounts and assigned the identifiers).
type Corpus struct {
	items []Item
}

// NewCorpus builds a corpus; empty values are skipped.
func NewCorpus(items ...Item) *Corpus {
	c := &Corpus{}
	for _, it := range items {
		if strings.TrimSpace(it.Value) != "" {
			c.items = append(c.items, it)
		}
	}
	return c
}

// Add appends an item.
func (c *Corpus) Add(kind Kind, value string) {
	if strings.TrimSpace(value) != "" {
		c.items = append(c.items, Item{Kind: kind, Value: value})
	}
}

// Items returns a copy of the corpus contents.
func (c *Corpus) Items() []Item { return append([]Item(nil), c.items...) }

// Len is the number of items.
func (c *Corpus) Len() int { return len(c.items) }

// Match is one detected exposure.
type Match struct {
	Item     Item
	Encoding string // "plain", "hex", "base64", "urlescape", "nocolon", ...
	Offset   int    // byte offset of the match in the scanned payload
}

// Scanner matches a corpus against payloads under multiple encodings.
// Every encoded needle is compiled into one Aho–Corasick automaton with
// ASCII case folding built into its input classes, so a scan is one
// pass over the payload, makes no lower-cased copy of it, and costs the
// same whatever the number of needles. A Scanner is read-only after
// NewScanner and safe for concurrent use.
//
// States are numbered breadth-first. The first ndense of them, every
// state at most denseDepth deep, have complete transition rows; a
// payload that matches nothing (ciphertext, mostly) never leaves them.
// Deeper states, nearly all links in one needle's chain, keep only
// their trie edges and fall back along their failure links, which keeps
// a compiled catalog corpus near 30 KB instead of the ~170 KB a full
// table over ~900 states and ~47 classes takes.
type Scanner struct {
	// needles in emission order: longest first, then corpus order, with
	// repeated (kind, value, encoding) triples dropped.
	needles []needle
	// fold maps a payload byte to its input class. Bytes that occur in
	// no needle share class 0; an ASCII letter shares its class with the
	// letter's other case.
	fold   [256]uint8
	nclass int
	// Scan walks state handles rather than numbers: a dense state's
	// handle is its row offset in dense (state*nclass), and sparse state
	// s has handle len(dense)+s-ndense. Transitions in dense and edgeTo,
	// and fail, hold handles.
	ndense int32
	dense  []int32
	// The trie edges of state s are edgeClass/edgeTo[edgeStart[s]:
	// edgeStart[s+1]]; fail is each state's failure link.
	edgeStart []int32
	edgeClass []uint8
	edgeTo    []int32
	fail      []int32
	// out is the pattern that ends at each state, or -1. link is the
	// nearest proper suffix state that ends a pattern, or -1.
	out, link []int32
	npat      int
}

// denseDepth is the deepest state with a complete transition row.
const denseDepth = 2

// emitFlag marks a transition (in dense or edgeTo) whose target state
// ends a pattern directly or down its suffix chain.
const emitFlag = math.MinInt32

type needle struct {
	item     Item
	encoding string
	text     string
	pat      int32 // automaton pattern id; needles that fold equal share one
}

// NewScanner compiles a scanner for the corpus.
func NewScanner(c *Corpus) *Scanner {
	s := &Scanner{}
	for _, it := range c.items {
		s.addNeedles(it)
	}
	// Longer needles first so the most specific encoding is reported.
	sort.SliceStable(s.needles, func(i, j int) bool {
		return len(s.needles[i].text) > len(s.needles[j].text)
	})
	// A repeated (kind, value, encoding) has the same text, so it matches
	// exactly when its first copy does; Scan would report it once.
	type key struct {
		kind            Kind
		value, encoding string
	}
	seen := make(map[key]bool, len(s.needles))
	kept := s.needles[:0]
	for _, n := range s.needles {
		k := key{n.item.Kind, n.item.Value, n.encoding}
		if !seen[k] {
			seen[k] = true
			kept = append(kept, n)
		}
	}
	s.needles = kept
	s.compile()
	return s
}

func (s *Scanner) addNeedles(it Item) {
	add := func(encoding, v string) {
		if len(v) < 4 {
			return // too short to search for reliably
		}
		s.needles = append(s.needles, needle{item: it, encoding: encoding, text: v})
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
		// MACs leak with separators stripped or swapped.
		add("nocolon", strings.ReplaceAll(v, ":", ""))
		add("dashes", strings.ReplaceAll(v, ":", "-"))
	}
	if strings.Contains(v, " ") {
		// Names/addresses often appear with '+' or '%20' or concatenated.
		add("plusjoined", strings.ReplaceAll(v, " ", "+"))
		add("concat", strings.ReplaceAll(v, " ", ""))
	}
}

func lowerASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// compile builds the automaton over s.needles: input classes, an
// array-backed goto trie, breadth-first failure links, then the dense
// rows and sparse edges in breadth-first state numbering.
func (s *Scanner) compile() {
	var used [256]bool
	for _, n := range s.needles {
		for i := 0; i < len(n.text); i++ {
			used[lowerASCII(n.text[i])] = true
		}
	}
	s.nclass = 1
	for b := range used {
		if used[b] {
			s.fold[b] = uint8(s.nclass)
			s.nclass++
		}
	}
	for b := 'A'; b <= 'Z'; b++ {
		s.fold[b] = s.fold[b+'a'-'A']
	}

	// Needle texts as class strings; their total length bounds the trie.
	pats := make([]string, len(s.needles))
	bound := 1
	for i, n := range s.needles {
		k := []byte(n.text)
		for j, b := range k {
			k[j] = s.fold[b]
		}
		pats[i] = string(k)
		bound += len(k)
	}

	// Goto trie as first-child/next-sibling lists; 0 (the root) ends a
	// list, since no edge re-enters the root.
	child := make([]int32, bound)
	sib := make([]int32, bound)
	label := make([]uint8, bound)
	out := make([]int32, bound)
	for i := range out {
		out[i] = -1
	}
	find := func(st int32, c uint8) int32 {
		t := child[st]
		for t != 0 && label[t] != c {
			t = sib[t]
		}
		return t
	}
	next := int32(1)
	for i, p := range pats {
		st := int32(0)
		for j := 0; j < len(p); j++ {
			t := find(st, p[j])
			if t == 0 {
				t = next
				next++
				label[t], sib[t], child[st] = p[j], child[st], t
			}
			st = t
		}
		if out[st] < 0 {
			out[st] = int32(s.npat)
			s.npat++
		}
		s.needles[i].pat = out[st]
	}
	states := int(next)

	// Breadth-first failure and suffix-output links. order lists trie
	// states in breadth-first order, which becomes their final number.
	fail := make([]int32, states)
	link := make([]int32, states)
	depth := make([]int32, states)
	order := make([]int32, 1, states)
	link[0] = -1
	for q := 0; q < len(order); q++ {
		st := order[q]
		for t := child[st]; t != 0; t = sib[t] {
			order = append(order, t)
			depth[t] = depth[st] + 1
			if st != 0 {
				f := fail[st]
				for f != 0 && find(f, label[t]) == 0 {
					f = fail[f]
				}
				fail[t] = find(f, label[t])
			}
			if f := fail[t]; out[f] >= 0 {
				link[t] = f
			} else {
				link[t] = link[f]
			}
		}
	}

	num := make([]int32, states)
	for q, st := range order {
		num[st] = int32(q)
		if depth[st] <= denseDepth {
			s.ndense = int32(q + 1)
		}
	}
	nc := s.nclass
	s.dense = make([]int32, int(s.ndense)*nc)
	handle := func(t int32) int32 { return s.handle(num[t]) }
	// to encodes an edge into old state t: its handle, flagged when t
	// reports.
	to := func(t int32) int32 {
		if out[t] >= 0 || link[t] >= 0 {
			return handle(t) | emitFlag
		}
		return handle(t)
	}
	renum := func(t int32) int32 {
		if t < 0 {
			return t
		}
		return num[t]
	}
	s.edgeStart = make([]int32, states+1)
	s.edgeClass = make([]uint8, states-1)
	s.edgeTo = make([]int32, states-1)
	s.fail = make([]int32, states)
	s.out = make([]int32, states)
	s.link = make([]int32, states)
	e := int32(0)
	for q, st := range order {
		s.fail[q], s.out[q], s.link[q] = handle(fail[st]), out[st], renum(link[st])
		s.edgeStart[q] = e
		for t := child[st]; t != 0; t = sib[t] {
			s.edgeClass[e], s.edgeTo[e] = label[t], to(t)
			e++
		}
		if int32(q) >= s.ndense {
			continue
		}
		// A dense row borrows every edge its state lacks from its
		// failure state's row, complete already because that state is
		// shallower.
		row := s.dense[q*nc : (q+1)*nc]
		if q > 0 {
			f := int(s.fail[q])
			copy(row, s.dense[f:f+nc])
		}
		for t := child[st]; t != 0; t = sib[t] {
			row[label[t]] = to(t)
		}
	}
	s.edgeStart[states] = e
}

// Scan searches payload for every needle and returns all matches in
// needle order (longest first), one per (item, encoding), each at the
// needle's first occurrence. Letters match case-insensitively in ASCII
// only; every other byte must match exactly.
func (s *Scanner) Scan(payload []byte) []Match {
	if len(payload) == 0 || len(s.needles) == 0 {
		return nil
	}
	// ends[p] is one past the end offset of pattern p's first
	// occurrence, or 0; allocated at the first hit so a payload with no
	// match costs no allocation.
	var ends []int
	found := 0
	dense := s.dense
	limit := int32(len(dense))
	h := int32(0)
	for i, b := range payload {
		c := s.fold[b]
		var e int32
		if h < limit {
			e = dense[h+int32(c)]
		} else {
			e = s.step(h, c)
		}
		h = e &^ emitFlag
		if e >= 0 {
			continue
		}
		if ends == nil {
			ends = make([]int, s.npat)
		}
		// A pattern seen before had every shorter pattern on its suffix
		// chain recorded with it, so the walk stops there.
		for p := s.state(h); p >= 0; p = s.link[p] {
			pat := s.out[p]
			if pat < 0 {
				continue
			}
			if ends[pat] != 0 {
				break
			}
			ends[pat] = i + 1
			found++
		}
		if found == s.npat {
			break
		}
	}
	if found == 0 {
		return nil
	}
	out := make([]Match, 0, found)
	for _, n := range s.needles {
		if e := ends[n.pat]; e != 0 {
			out = append(out, Match{Item: n.item, Encoding: n.encoding, Offset: e - len(n.text)})
		}
	}
	return out
}

// handle returns the handle of state st.
func (s *Scanner) handle(st int32) int32 {
	if st < s.ndense {
		return st * int32(s.nclass)
	}
	return int32(len(s.dense)) + st - s.ndense
}

// state inverts handle.
func (s *Scanner) state(h int32) int32 {
	if limit := int32(len(s.dense)); h >= limit {
		return h - limit + s.ndense
	}
	return h / int32(s.nclass)
}

// step is the transition out of sparse handle h on class c: the state's
// trie edge if it has one, else the transition of its failure state.
func (s *Scanner) step(h int32, c uint8) int32 {
	limit := int32(len(s.dense))
	for h >= limit {
		st := h - limit + s.ndense
		for e := s.edgeStart[st]; e < s.edgeStart[st+1]; e++ {
			if s.edgeClass[e] == c {
				return s.edgeTo[e]
			}
		}
		h = s.fail[st]
	}
	return s.dense[h+int32(c)]
}

// ScanString is Scan for string payloads.
func (s *Scanner) ScanString(payload string) []Match { return s.Scan([]byte(payload)) }

// KindsFound summarizes the distinct kinds present in a match set.
func KindsFound(matches []Match) []Kind {
	set := make(map[Kind]bool)
	for _, m := range matches {
		set[m.Item.Kind] = true
	}
	out := make([]Kind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
