// Package entropy implements the paper's encryption-detection pipeline
// (§5.1): protocol-based identification first (TLS/QUIC records are
// encrypted), then known-encoding magic bytes (media and compressed
// content are *unencrypted* even though high-entropy), and finally
// normalized byte-entropy thresholds for everything else.
//
// A FlowClassifier runs that pipeline per flow over one histogram. It
// copies the flow's head payloads (4 KB per direction) once into
// reusable buffers with a single pass over the packets, and counts
// their bytes once into a 256-bin histogram. Everything numeric is read
// off that histogram:
//
//   - the printable share, summed from the printable bins (the same
//     integer ratio IsMostlyPrintable computes);
//   - one metric-family evaluation (Shannon, Rényi α∈{0.5,2}, Tsallis
//     q=2), which fills the verdict's Metrics, decides the threshold
//     class through Thresholds.Metric, and supplies Entropy — bit for
//     bit Shannon of the concatenated heads, since it is the same loop
//     over the same counts.
//
// Only the HTTP body path measures separately, over the body alone. A
// warm classifier allocates nothing; ClassifyFlow is the one-shot form.
package entropy
