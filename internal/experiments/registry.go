package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/runobs"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// RunConfig is the shared configuration every registered experiment
// accepts; each spec maps the fields onto its declaration and ignores
// what does not apply (documented per field).
type RunConfig struct {
	// Durations sets the simulated warm-up and measurement windows. The
	// zero value selects Full.
	Durations Durations
	// Obs, when non-nil, is the run's telemetry session (internal/runobs):
	// what it asks for — per-cell series and manifests plus a run
	// aggregate, the invariant oracle (a violation in any cell fails the
	// run with a descriptive error; checking also arms the event/packet
	// pool ownership checks), per-cell Perfetto traces, span TSVs and
	// flight dumps, heartbeat / engine profile / watchdog — applies to
	// every simulation cell of every experiment alike.
	Obs *runobs.Session
	// CSVDir, when non-empty, is the directory the experiment's raw
	// per-point CSV files are written into, under the same file names the
	// CLI has always used. Empty disables CSV output.
	CSVDir string
	// Seed overrides the base seed of the experiments that take one —
	// fig6, ext-door, city and the fault, churn, reorder and repair
	// matrices; zero keeps each one's default. The other experiments
	// derive every cell's streams from fixed seeds and ignore it.
	Seed int64
	// Smoke trims sweep axes to one or two representative cells so every
	// experiment finishes in test time. It changes which cells run, never
	// how a cell runs — the registry round-trip test uses it to prove
	// each Spec end to end without paying for full sweeps.
	Smoke bool
	// Shards, when positive, pins the sharded-city experiment to exactly
	// that shard count instead of its default {1, 4} scaling sweep. The
	// per-figure experiments run on one scheduler and ignore it.
	Shards int
	// Repair, when non-empty, pins the repair-middlebox matrix to exactly
	// that repair scenario (a netem.RepairScenario name) instead of its
	// default {none, repair, repair-tight} sweep. Experiments without a
	// middlebox axis ignore it.
	Repair string
}

// durations resolves the zero value to the paper's full protocol.
func (c RunConfig) durations() Durations {
	if c.Durations == (Durations{}) {
		return Full
	}
	return c.Durations
}

// short reports whether an absolute-time experiment (city, the matrices)
// takes its shortened run: Quick and Smoke both ask for it.
func (c RunConfig) short() bool { return c.Smoke || c.Durations == Quick }

// trim returns an axis's (or a size's) smoke value under Smoke and its
// full one otherwise.
func trim[T any](c RunConfig, full, smoke T) T {
	if c.Smoke {
		return smoke
	}
	return full
}

// Spec is one registered experiment: a stable CLI name, a one-line
// description, and its declaration run under a RunConfig.
type Spec struct {
	Name     string
	Describe string
	run      func(RunConfig) ([]*Table, error)
}

// Run runs the experiment, writes the metrics aggregate and the CSV
// exports, and returns the tables to print in display order. An export
// failure or any invariant violation is the run's error.
func (s Spec) Run(cfg RunConfig) ([]*Table, error) {
	tables, err := s.run(cfg)
	if err != nil {
		return nil, err
	}
	if err := cfg.Obs.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	if err := cfg.Obs.WriteAggregate(s.Name); err != nil {
		return nil, fmt.Errorf("%s: aggregate: %w", s.Name, err)
	}
	var printed []*Table
	for _, t := range tables {
		if cfg.CSVDir != "" && t.csv != "" {
			if err := runobs.WriteFile(filepath.Join(cfg.CSVDir, t.csv), t.WriteCSV); err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
		}
		if !t.quiet {
			printed = append(printed, t)
		}
	}
	return printed, nil
}

// Registry returns the experiment specs in display order — the paper's
// figures first, then the ablations, extensions, and the matrices. The
// slice is freshly allocated; callers may reorder it.
func Registry() []Spec {
	return append([]Spec(nil), specs...)
}

// Lookup returns the named spec.
func Lookup(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the registered experiment names in display order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// topologies is the fig2/3/4 topology sweep.
var topologies = []string{"dumbbell", "parkinglot"}

// specs is the registry: each row's run maps RunConfig onto one
// declaration, its full axes and its Smoke cells.
var specs = []Spec{
	{"fig2", "Fig 2 fairness: TCP-PR vs TCP-SACK normalized throughput across flow counts",
		func(c RunConfig) ([]*Table, error) {
			return RunFig2(Fig2Config{
				Topologies: trim(c, topologies, topologies[:1]),
				FlowCounts: trim(c, []int{4, 8, 16, 32, 48, 64}, []int{8}),
				Durations:  c.durations(), Obs: c.Obs,
			})
		}},
	{"fig3", "Fig 3 CoV of throughput vs loss rate, repeated over seeds",
		func(c RunConfig) ([]*Table, error) {
			return RunFig3(Fig3Config{
				Topologies:     trim(c, topologies, topologies[:1]),
				BandwidthsMbps: trim(c, []float64{10, 7, 5, 3.5, 2.5, 1.8}, []float64{10}),
				Flows:          trim(c, 16, 8), Seeds: trim(c, 10, 1),
				Durations: c.durations(), Obs: c.Obs,
			})
		}},
	{"fig4", "Fig 4 alpha/beta sensitivity grid against TCP-SACK",
		func(c RunConfig) ([]*Table, error) {
			return fig4(trim(c, topologies, topologies[:1]), trim(c, []float64{0.3, 0.6, 0.9, 0.995}, []float64{0.995}),
				trim(c, []float64{1, 2, 3, 5, 10}, []float64{3}), trim(c, 64, 8), c.durations(), c.Obs)
		}},
	{"fig6", "Fig 6 multipath comparison across protocols, epsilons, and link delays",
		func(c RunConfig) ([]*Table, error) {
			cfg := Fig6Config{
				Protocols:  trim(c, workload.Fig6Protocols(), []string{workload.TCPPR, workload.TCPSACK}),
				Epsilons:   trim(c, []float64{0, 1, 4, 10, 500}, []float64{1}),
				LinkDelays: trim(c, []time.Duration{10 * time.Millisecond, 60 * time.Millisecond}, []time.Duration{10 * time.Millisecond}),
				Durations:  c.durations(), Seed: c.Seed, Obs: c.Obs,
			}
			points, err := RunFig6(cfg)
			return fig6Tables(cfg, points), err
		}},
	{"ablation-beta", "Ablation: beta under heavy loss (the paper's §4 note)",
		func(c RunConfig) ([]*Table, error) {
			return ablationBeta(trim(c, []float64{1, 2, 3, 5, 10}, []float64{3}), trim(c, 16, 8), c.durations(), c.Obs)
		}},
	{"ablation-memorize", "Ablation: memorize list on vs off under burst loss",
		func(c RunConfig) ([]*Table, error) {
			return ablationBurst("ablation-memorize", "Ablation: memorize list (single flow, lossy dumbbell)", c.durations(), c.Obs,
				burstVariant{"memorize (paper)", core.Config{}}, burstVariant{"no memorize", core.Config{DisableMemorize: true}})
		}},
	{"ablation-sendcwnd", "Ablation: halve from send-time cwnd vs current cwnd",
		func(c RunConfig) ([]*Table, error) {
			return ablationBurst("ablation-sendcwnd", "Ablation: halve from send-time cwnd vs current cwnd", c.durations(), c.Obs,
				burstVariant{"cwnd at send time (paper)", core.Config{}}, burstVariant{"current cwnd", core.Config{HalveFromCurrentCwnd: true}})
		}},
	{"ablation-holemode", "Ablation: hole-handling policy while the cumulative ACK is frozen",
		func(c RunConfig) ([]*Table, error) { return ablationHoleMode(c.durations(), c.Obs) }},
	{"ext-threshold", "Extension: loss-detection threshold sweep over a recorded trace",
		func(c RunConfig) ([]*Table, error) { return thresholdSweep(c.durations(), c.Obs) }},
	{"ext-reorder", "Extension: how much reordering each epsilon actually produces",
		func(c RunConfig) ([]*Table, error) { return reorderProfile(c.durations(), c.Obs) }},
	{"ext-robustness", "Extension: goodput under ACK loss, delayed ACKs, jitter, and RED",
		func(c RunConfig) ([]*Table, error) { return robustness(c.durations(), c.Obs) }},
	{"ext-door", "Extension: Fig 6 protocol set plus TCP-DOOR and Eifel",
		func(c RunConfig) ([]*Table, error) {
			cfg := Fig6Config{
				Protocols:  trim(c, append(workload.Fig6Protocols(), workload.TCPDOOR, workload.Eifel), []string{workload.TCPDOOR, workload.Eifel}),
				Epsilons:   trim(c, []float64{0, 1, 4, 10, 500}, []float64{1}),
				LinkDelays: []time.Duration{10 * time.Millisecond},
				Durations:  c.durations(), Seed: c.Seed, Obs: c.Obs,
			}
			points, err := runFig6("ext-door", cfg)
			tables := fig6Tables(cfg, points)
			for _, t := range tables {
				t.Title, t.csv = "Extension: Fig 6 protocol set + TCP-DOOR + Eifel (10 ms links)", "ext_door.csv"
			}
			return tables, err
		}},
	{"city", "Sharded-city scaling: sim-s/wall-s of the parallel engine at 1 vs 4 shards",
		func(c RunConfig) ([]*Table, error) {
			cfg := CityConfig{
				City:        topo.CityConfig{Districts: 8, HostsPerDistrict: 16},
				ShardCounts: []int{1, 4}, Seed: c.Seed, Horizon: 3 * time.Second, SourcesPerHost: 4, Obs: c.Obs,
			}
			if cfg.Seed == 0 {
				cfg.Seed = 42
			}
			if c.short() {
				cfg.City, cfg.Horizon, cfg.SourcesPerHost, cfg.ShardCounts = topo.CityConfig{Districts: 4, HostsPerDistrict: 4}, time.Second, 1, []int{1, 2}
			}
			if c.Shards > 0 {
				cfg.ShardCounts = []int{c.Shards}
			}
			res, err := RunCityScaling(cfg)
			return []*Table{res.Table()}, err
		}},
	{"faultmatrix", "Survival matrix: every protocol against every scripted fault scenario",
		func(c RunConfig) ([]*Table, error) {
			// The matrices measure absolute simulated time, not a
			// warm/measure split; Quick and Smoke map to their shortened
			// runs.
			cfg := FaultMatrixConfig{Seed: c.Seed, Obs: c.Obs}
			if c.short() {
				cfg.Total, cfg.FaultAt = 20*time.Second, 3*time.Second
			}
			res, err := RunFaultMatrix(cfg)
			return []*Table{res.Table()}, err
		}},
	{"churnmatrix", "Endpoint-churn matrix: retrying workloads against host blip/reboot/flap/death",
		func(c RunConfig) ([]*Table, error) {
			cfg := ChurnMatrixConfig{Seed: c.Seed, Obs: c.Obs}
			if c.short() {
				// 90s covers the worst double-cold abort ladder for TCP-PR
				// (~FaultAt + one ~39s cold ladder per attempt plus backoff),
				// so the host-dead column shows real give-ups.
				cfg.Total, cfg.FaultAt = 90*time.Second, 3*time.Second
				cfg.Protocols = []string{workload.TCPPR, workload.TCPSACK, workload.NewReno}
			}
			res, err := RunChurnMatrix(cfg)
			return []*Table{res.Table(), res.EventsTable()}, err
		}},
	{"reordermatrix", "Reordering survival matrix: every protocol against every canned reorder model",
		func(c RunConfig) ([]*Table, error) {
			// Smoke also trims the protocol axis to the headline comparison
			// (TCP-PR vs the dupack-threshold baselines the swap models
			// punish).
			cfg := ReorderMatrixConfig{Seed: c.Seed, Obs: c.Obs,
				Protocols: trim(c, nil, []string{workload.TCPPR, workload.NewReno, workload.TDFR})}
			if c.short() {
				cfg.Total = 12 * time.Second
			}
			res, err := RunReorderMatrix(cfg)
			return []*Table{res.Table(), res.DisplacementTable()}, err
		}},
	{"repairmatrix", "Repair-middlebox matrix: reorder models × repair boxes × every protocol",
		func(c RunConfig) ([]*Table, error) {
			// Smoke also trims the protocol and model axes to the headline
			// comparison (the swap model punishes dupack-threshold senders
			// hardest, so it shows the repair effect most clearly).
			cfg := RepairMatrixConfig{Seed: c.Seed, Obs: c.Obs,
				Protocols: trim(c, nil, []string{workload.TCPPR, workload.NewReno, workload.TCPSACK}),
				Models:    trim(c, nil, []string{"swap-high"})}
			if c.short() {
				cfg.Total = 12 * time.Second
			}
			if c.Repair != "" {
				cfg.Boxes = []string{c.Repair}
			}
			res, err := RunRepairMatrix(cfg)
			return []*Table{res.Table(), res.DetailTable()}, err
		}},
}
