package analysis

import (
	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
)

// Source streams one campaign's labelled experiments through the
// pipeline. Two implementations exist: *experiments.Runner synthesizes
// a campaign in-process (the default), and internal/ingest replays a
// Mon(IoT)r-style capture directory recorded at real gateways — either
// buffered whole or streamed through a bounded reorder window
// (ingest.Options.Stream); the delivery contract below is identical
// either way. The pipeline is indifferent to which source feeds it —
// given the same experiment stream all produce byte-identical tables.
//
// The pipeline cuts each delivered leg into runs at device boundaries
// and folds the runs on its own workers (fold.go), so an experiment may
// still be in use after visit returns: a source must leave it intact
// until its Done is called. Legs delivered device by device keep runs
// long and the fold workers busy.
type Source interface {
	// Internet exposes the (simulated) server side the captures talk
	// to; the destination analysis needs its org registry and
	// Passport-style locators. Capture-replay sources return a freshly
	// built model, which allocates identically by construction.
	Internet() *cloud.Internet
	// RunControlled streams every controlled (power + interaction)
	// experiment to visit, in a deterministic order independent of any
	// internal parallelism, and returns the leg's campaign statistics.
	RunControlled(experiments.Visitor) experiments.Stats
	// RunIdle does the same for the idle capture windows.
	RunIdle(experiments.Visitor) experiments.Stats
	// SetObs attaches a metrics registry; instrumentation must be
	// nil-safe and change no experiment output.
	SetObs(*obs.Registry)
}

// Statically assert that the synthesis runner feeds the pipeline, and
// that a reshape-defended wrapper around any source still does.
var (
	_ Source = (*experiments.Runner)(nil)
	_ Source = (*reshape.Source)(nil)
)
