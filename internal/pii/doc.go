// Package pii implements the plaintext PII detection of §6.1/§6.2: given
// the PII known for a device (identifiers assigned at manufacture plus
// personal information supplied at account registration), it searches
// network payloads for those values under the encodings leaky firmware
// actually uses — raw text, upper/lower hex, base64, URL escaping, and
// JSON string embedding.
//
// NewScanner expands every corpus item into its encoded needles (plain,
// base64, base64url, hex, urlescape; nocolon/dashes for MACs;
// plusjoined/concat for values with spaces) and compiles them all into
// one Aho–Corasick automaton. ASCII case folding lives in the byte →
// input-class map, so Scan walks the payload once, makes no lower-cased
// copy of it, and allocates nothing when nothing matches. The automaton
// keeps complete transition rows only for states near the root, where a
// scan of ciphertext spends all its time; deeper states hold their trie
// edges and fall back along failure links.
//
// Scan records the first end offset of every needle and then reports
// matches in needle order — longest first, ties in corpus order — once
// per (kind, value, encoding), each at the needle's first occurrence.
// Match.Offset is a byte offset into the payload as given. Case folding
// is ASCII only: non-ASCII bytes must match exactly, so unlike a
// Unicode lower-casing search, U+212A KELVIN SIGN and U+0130 (capital I
// with dot above) do not stand in for 'k' and 'i'.
package pii
