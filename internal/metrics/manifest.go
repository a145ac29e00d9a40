package metrics

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"time"

	"tcppr/internal/sim"
)

// SeriesInfo summarizes one exported series inside a manifest.
type SeriesInfo struct {
	Name    string `json:"name"`
	Points  int    `json:"points"`
	Dropped uint64 `json:"dropped,omitempty"`
	// File is the series dump this manifest sits next to, when written.
	File string `json:"file,omitempty"`
}

// Manifest is the machine-readable record of one simulation run: what was
// simulated (topology, variant, parameters, seed), how the engine
// performed (events processed, wall-clock time, events/sec), and the final
// instrument values. One manifest is written per experiment cell so
// BENCH_*.json-style trajectories can be tracked across revisions.
type Manifest struct {
	// Name identifies the run (also the output-file stem), e.g.
	// "fig2_dumbbell_n8".
	Name string `json:"name"`
	// Experiment is the harness that produced the run ("fig2", "tcpsim").
	Experiment string `json:"experiment,omitempty"`
	// Topology and Variant describe the scenario ("dumbbell",
	// "TCP-PR vs TCP-SACK").
	Topology string `json:"topology,omitempty"`
	Variant  string `json:"variant,omitempty"`
	// Seed is the run's random seed (0 when the run draws no randomness).
	Seed int64 `json:"seed"`
	// Params carries scenario knobs (alpha, beta, flows, eps, ...).
	Params map[string]float64 `json:"params,omitempty"`

	// SimSeconds is the simulated duration; WallSeconds the real time the
	// run took; EventsProcessed the scheduler's event count.
	SimSeconds      float64 `json:"sim_seconds"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsProcessed uint64  `json:"events_processed"`
	// EventsPerSec is the engine throughput (events/wall-second).
	EventsPerSec float64 `json:"events_per_sec"`
	// Scheduler holds the event-queue counters (heap and lane traffic),
	// summed over the run's schedulers; deterministic like EventsProcessed.
	Scheduler *sim.Stats `json:"scheduler,omitempty"`

	// SamplerInterval is the sampling cadence in seconds (0 when no
	// sampler was attached); Series lists the exported series.
	SamplerInterval float64      `json:"sampler_interval_s,omitempty"`
	Series          []SeriesInfo `json:"series,omitempty"`

	// Faults lists the scripted fault events applied during the run, one
	// formatted line per event (time, kind, link, note), in application
	// order. Populated by harnesses that drive a faults.Timeline.
	Faults []string `json:"faults,omitempty"`

	// Artifacts lists companion files written alongside the manifest
	// (Perfetto traces, span TSVs, flight-recorder dumps), as file names
	// relative to the manifest's directory.
	Artifacts []string `json:"artifacts,omitempty"`

	// Final instrument values at the end of the run.
	Counters map[string]uint64  `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// FillRates derives EventsPerSec from EventsProcessed and WallSeconds.
func (m *Manifest) FillRates() {
	if m.WallSeconds > 0 {
		m.EventsPerSec = float64(m.EventsProcessed) / m.WallSeconds
	}
}

// AddSnapshot folds a registry snapshot's final values into the manifest.
func (m *Manifest) AddSnapshot(s Snapshot) {
	if len(s.Counters) > 0 && m.Counters == nil {
		m.Counters = make(map[string]uint64, len(s.Counters))
	}
	for k, v := range s.Counters {
		m.Counters[k] = v
	}
	if len(s.Gauges) > 0 && m.Gauges == nil {
		m.Gauges = make(map[string]float64, len(s.Gauges))
	}
	for k, v := range s.Gauges {
		m.Gauges[k] = v
	}
}

// AddSampler records the sampler's cadence and series inventory; file is
// the name of the series dump the series were written to ("" when the
// series were not exported).
func (m *Manifest) AddSampler(sp *Sampler, file string) {
	m.SamplerInterval = sp.Interval().Seconds()
	for _, s := range sp.Series() {
		m.Series = append(m.Series, SeriesInfo{
			Name: s.Name(), Points: s.Len(), Dropped: s.Dropped(), File: file,
		})
	}
}

// WriteJSON encodes the manifest (indented, trailing newline).
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifest loads a manifest written by WriteJSON.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// SanitizeName maps an arbitrary run label to a filesystem-safe stem:
// spaces and path separators become '-', other punctuation is dropped.
func SanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		case r == ' ', r == '/', r == '\\':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Wall measures wall-clock duration: call with a start time captured
// before the run. Thin helper so manifest call sites read uniformly.
func Wall(start time.Time) float64 { return time.Since(start).Seconds() }
