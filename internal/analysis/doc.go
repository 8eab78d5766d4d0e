// Package analysis implements the paper's measurement analyses over
// captured experiments: destination analysis (§4, RQ1), encryption
// analysis (§5, RQ2), content analysis — plaintext PII and activity
// inference (§6, RQ3/RQ4) — and unexpected-behaviour detection (§7, RQ5),
// with regional comparison (RQ6) woven through every table's columns.
//
// Every collector consumes experiments in a streaming fashion, so the
// full campaign never needs to be held in memory. Standalone collectors
// take one experiment at a time through their Visit methods. A Pipeline
// runs them one way for every source: each contiguous run of a leg folds
// into a private unit of collectors, on Pipeline.Workers goroutines, and
// the units merge back in campaign order (see fold.go). Model training
// and evaluation fan out per tree, per fold and per device. Every table,
// model and detection is byte-identical to visiting every experiment
// serially, for any worker count — parallelism trades wall time only.
package analysis
