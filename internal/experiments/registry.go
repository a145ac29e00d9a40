package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"tcppr/internal/runobs"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// RunConfig is the shared configuration every registered experiment
// accepts. It unifies the knobs the per-figure Run* functions grew
// independently; each Spec maps the fields onto its underlying config and
// ignores what does not apply (documented per field).
type RunConfig struct {
	// Durations sets the simulated warm-up and measurement windows. The
	// zero value selects Full, matching the per-figure configs.
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
	// Seed overrides the experiment's default base seed where one exists
	// (fig6, ext-door, faultmatrix); zero keeps the default. Experiments
	// with hard-wired per-cell seed derivations ignore it.
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

// topologies returns the topology sweep for the fig2/3/4 family.
func (c RunConfig) topologies() []string {
	if c.Smoke {
		return []string{"dumbbell"}
	}
	return []string{"dumbbell", "parkinglot"}
}

// CSVFile is one raw-data export of a Report: the file name the CLI
// writes (no directory) and the table holding the rows.
type CSVFile struct {
	Name  string
	Table *Table
}

// Report is the outcome of one registered experiment run: the printable
// result tables, in display order. Its raw per-point CSV exports are
// already written to RunConfig.CSVDir when that was set.
type Report interface {
	Tables() []*Table
}

// report is the concrete Report every Spec returns.
type report struct {
	tables []*Table
	csvs   []CSVFile
}

func (r report) Tables() []*Table { return r.tables }

// finish completes a spec run: surface a failed export or any invariant
// violation as the run's error, write the metrics aggregate and the CSV
// exports, and hand the report back.
func (r report) finish(cfg RunConfig, name string) (Report, error) {
	if err := cfg.Obs.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := cfg.Obs.WriteAggregate(name); err != nil {
		return nil, fmt.Errorf("%s: aggregate: %w", name, err)
	}
	if cfg.CSVDir != "" {
		for _, f := range r.csvs {
			if err := runobs.WriteFile(filepath.Join(cfg.CSVDir, f.Name), f.Table.WriteCSV); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return r, nil
}

// Spec is one registered experiment: a stable CLI name, a one-line
// description, and a runner accepting the unified RunConfig.
type Spec struct {
	Name     string
	Describe string
	Run      func(RunConfig) (Report, error)
}

// Registry returns the experiment specs in display order — the paper's
// figures first, then the ablations, extensions, and the fault matrix.
// The slice is freshly allocated; callers may reorder it.
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

var specs = []Spec{
	{
		Name:     "fig2",
		Describe: "Fig 2 fairness: TCP-PR vs TCP-SACK normalized throughput across flow counts",
		Run: func(cfg RunConfig) (Report, error) {
			var rep report
			for _, topology := range cfg.topologies() {
				c := Fig2Config{Topology: topology, Durations: cfg.durations(), Obs: cfg.Obs}
				if cfg.Smoke {
					c.FlowCounts = []int{8}
				}
				res := RunFig2(c)
				rep.tables = append(rep.tables, res.Table())
				rep.csvs = append(rep.csvs, CSVFile{"fig2_" + topology + ".csv", res.PerFlowTable()})
			}
			return rep.finish(cfg, "fig2")
		},
	},
	{
		Name:     "fig3",
		Describe: "Fig 3 CoV of throughput vs loss rate, repeated over seeds",
		Run: func(cfg RunConfig) (Report, error) {
			var rep report
			for _, topology := range cfg.topologies() {
				c := Fig3Config{Topology: topology, Durations: cfg.durations(), Obs: cfg.Obs}
				if cfg.Smoke {
					c.BandwidthsMbps = []float64{10}
					c.Seeds = 1
					c.Flows = 8
				}
				res := RunFig3(c)
				rep.tables = append(rep.tables, res.MeanTable())
				rep.csvs = append(rep.csvs, CSVFile{"fig3_" + topology + ".csv", res.Table()})
			}
			return rep.finish(cfg, "fig3")
		},
	},
	{
		Name:     "fig4",
		Describe: "Fig 4 alpha/beta sensitivity grid against TCP-SACK",
		Run: func(cfg RunConfig) (Report, error) {
			var rep report
			for _, topology := range cfg.topologies() {
				c := Fig4Config{Topology: topology, Durations: cfg.durations(), Obs: cfg.Obs}
				if cfg.Smoke {
					c.Alphas = []float64{0.995}
					c.Betas = []float64{3}
					c.Flows = 8
				}
				res := RunFig4(c)
				rep.tables = append(rep.tables, res.Table())
				rep.csvs = append(rep.csvs, CSVFile{"fig4_" + topology + ".csv", res.Table()})
			}
			return rep.finish(cfg, "fig4")
		},
	},
	{
		Name:     "fig6",
		Describe: "Fig 6 multipath comparison across protocols, epsilons, and link delays",
		Run: func(cfg RunConfig) (Report, error) {
			c := Fig6Config{Durations: cfg.durations(), Seed: cfg.Seed, Obs: cfg.Obs}
			if cfg.Smoke {
				c.Protocols = []string{workload.TCPPR, workload.TCPSACK}
				c.Epsilons = []float64{1}
				c.LinkDelays = []time.Duration{10 * time.Millisecond}
			}
			res := RunFig6(c)
			var rep report
			for i, t := range res.Table() {
				rep.tables = append(rep.tables, t)
				rep.csvs = append(rep.csvs, CSVFile{fmt.Sprintf("fig6_delay%d.csv", i), t})
			}
			return rep.finish(cfg, "fig6")
		},
	},
	{
		Name:     "ablation-beta",
		Describe: "Ablation: beta under heavy loss (the paper's §4 note)",
		Run: func(cfg RunConfig) (Report, error) {
			c := AblationBetaConfig{Durations: cfg.durations(), Obs: cfg.Obs}
			if cfg.Smoke {
				c.Betas = []float64{3}
				c.Flows = 8
			}
			res := RunAblationBeta(c)
			rep := report{
				tables: []*Table{res.Table()},
				csvs:   []CSVFile{{"ablation_beta.csv", res.Table()}},
			}
			return rep.finish(cfg, "ablation-beta")
		},
	},
	{
		Name:     "ablation-memorize",
		Describe: "Ablation: memorize list on vs off under burst loss",
		Run: func(cfg RunConfig) (Report, error) {
			res := RunAblationMemorize(cfg.durations(), cfg.Obs)
			rep := report{tables: []*Table{
				res.Table("Ablation: memorize list (single flow, lossy dumbbell)"),
			}}
			return rep.finish(cfg, "ablation-memorize")
		},
	},
	{
		Name:     "ablation-sendcwnd",
		Describe: "Ablation: halve from send-time cwnd vs current cwnd",
		Run: func(cfg RunConfig) (Report, error) {
			res := RunAblationSendCwnd(cfg.durations(), cfg.Obs)
			rep := report{tables: []*Table{
				res.Table("Ablation: halve from send-time cwnd vs current cwnd"),
			}}
			return rep.finish(cfg, "ablation-sendcwnd")
		},
	},
	{
		Name:     "ablation-holemode",
		Describe: "Ablation: hole-handling policy while the cumulative ACK is frozen",
		Run: func(cfg RunConfig) (Report, error) {
			rep := report{tables: []*Table{RunAblationHoleMode(cfg.durations(), cfg.Obs)}}
			return rep.finish(cfg, "ablation-holemode")
		},
	},
	{
		Name:     "ext-threshold",
		Describe: "Extension: loss-detection threshold sweep over a recorded trace",
		Run: func(cfg RunConfig) (Report, error) {
			t := RunThresholdSweep(cfg.durations(), cfg.Obs)
			rep := report{tables: []*Table{t}, csvs: []CSVFile{{"ext_threshold.csv", t}}}
			return rep.finish(cfg, "ext-threshold")
		},
	},
	{
		Name:     "ext-reorder",
		Describe: "Extension: how much reordering each epsilon actually produces",
		Run: func(cfg RunConfig) (Report, error) {
			t := ReorderTable(RunReorderProfile(cfg.durations(), 0, cfg.Obs))
			rep := report{tables: []*Table{t}, csvs: []CSVFile{{"ext_reorder.csv", t}}}
			return rep.finish(cfg, "ext-reorder")
		},
	},
	{
		Name:     "ext-robustness",
		Describe: "Extension: goodput under ACK loss, delayed ACKs, jitter, and RED",
		Run: func(cfg RunConfig) (Report, error) {
			res := RunRobustness(cfg.durations(), cfg.Obs)
			rep := report{
				tables: []*Table{res.Table()},
				csvs:   []CSVFile{{"ext_robustness.csv", res.Table()}},
			}
			return rep.finish(cfg, "ext-robustness")
		},
	},
	{
		Name:     "ext-door",
		Describe: "Extension: Fig 6 protocol set plus TCP-DOOR and Eifel",
		Run: func(cfg RunConfig) (Report, error) {
			var res Fig6Result
			if cfg.Smoke {
				res = RunFig6(Fig6Config{
					Protocols:  []string{workload.TCPDOOR, workload.Eifel},
					Epsilons:   []float64{1},
					LinkDelays: []time.Duration{10 * time.Millisecond},
					Durations:  cfg.durations(),
					Seed:       cfg.Seed,
					Obs:        cfg.Obs,
					experiment: "ext-door",
				})
			} else {
				res = RunExtComparison(cfg.durations(), cfg.Obs)
			}
			var rep report
			for _, t := range res.Table() {
				t.Title = "Extension: Fig 6 protocol set + TCP-DOOR + Eifel (10 ms links)"
				rep.tables = append(rep.tables, t)
				rep.csvs = append(rep.csvs, CSVFile{"ext_door.csv", t})
			}
			return rep.finish(cfg, "ext-door")
		},
	},
	{
		Name:     "city",
		Describe: "Sharded-city scaling: sim-s/wall-s of the parallel engine at 1 vs 4 shards",
		Run: func(cfg RunConfig) (Report, error) {
			c := CityConfig{
				City:           topo.CityConfig{Districts: 8, HostsPerDistrict: 16},
				ShardCounts:    []int{1, 4},
				Seed:           cfg.Seed,
				Horizon:        3 * time.Second,
				SourcesPerHost: 4,
				Obs:            cfg.Obs,
			}
			if c.Seed == 0 {
				c.Seed = 42
			}
			if cfg.Smoke || cfg.Durations == Quick {
				c.City = topo.CityConfig{Districts: 4, HostsPerDistrict: 4}
				c.Horizon = time.Second
				c.SourcesPerHost = 1
				c.ShardCounts = []int{1, 2}
			}
			if cfg.Shards > 0 {
				c.ShardCounts = []int{cfg.Shards}
			}
			res, err := RunCityScaling(c)
			if err != nil {
				return nil, err
			}
			t := res.Table()
			rep := report{tables: []*Table{t}, csvs: []CSVFile{{"city_scaling.csv", t}}}
			return rep.finish(cfg, "city")
		},
	},
	{
		Name:     "faultmatrix",
		Describe: "Survival matrix: every protocol against every scripted fault scenario",
		Run: func(cfg RunConfig) (Report, error) {
			c := FaultMatrixConfig{Seed: cfg.Seed, Obs: cfg.Obs}
			// The fault matrix measures absolute simulated time, not a
			// warm/measure split; Quick (and Smoke) map to its shortened
			// run the CLI's -quick always used.
			if cfg.Smoke || cfg.Durations == Quick {
				c.Total = 20 * time.Second
				c.FaultAt = 3 * time.Second
			}
			res, err := RunFaultMatrix(c)
			if err != nil {
				return nil, err
			}
			rep := report{
				tables: []*Table{res.Table()},
				csvs:   []CSVFile{{"faultmatrix.csv", res.Table()}},
			}
			return rep.finish(cfg, "faultmatrix")
		},
	},
	{
		Name:     "churnmatrix",
		Describe: "Endpoint-churn matrix: retrying workloads against host blip/reboot/flap/death",
		Run: func(cfg RunConfig) (Report, error) {
			c := ChurnMatrixConfig{Seed: cfg.Seed, Obs: cfg.Obs}
			// Like the fault matrix, this measures absolute simulated
			// time; Quick/Smoke trim the run and the protocol set.
			if cfg.Smoke || cfg.Durations == Quick {
				// 90s covers the worst double-cold abort ladder for TCP-PR
				// (~FaultAt + one ~39s cold ladder per attempt plus backoff),
				// so the host-dead column shows real give-ups.
				c.Total = 90 * time.Second
				c.FaultAt = 3 * time.Second
				c.Protocols = []string{workload.TCPPR, workload.TCPSACK, workload.NewReno}
			}
			res, err := RunChurnMatrix(c)
			if err != nil {
				return nil, err
			}
			rep := report{
				tables: []*Table{res.Table()},
				csvs: []CSVFile{
					{"churnmatrix.csv", res.Table()},
					{"churnmatrix_events.csv", res.EventsTable()},
				},
			}
			return rep.finish(cfg, "churnmatrix")
		},
	},
	{
		Name:     "reordermatrix",
		Describe: "Reordering survival matrix: every protocol against every canned reorder model",
		Run: func(cfg RunConfig) (Report, error) {
			c := ReorderMatrixConfig{Seed: cfg.Seed, Obs: cfg.Obs}
			// Absolute simulated time, like the other matrices. Quick and
			// Smoke trim the run; Smoke also trims the protocol axis to
			// the headline comparison (TCP-PR vs the dupack-threshold
			// baselines the swap models punish).
			if cfg.Smoke || cfg.Durations == Quick {
				c.Total = 12 * time.Second
			}
			if cfg.Smoke {
				c.Protocols = []string{workload.TCPPR, workload.NewReno, workload.TDFR}
			}
			res, err := RunReorderMatrix(c)
			if err != nil {
				return nil, err
			}
			rep := report{
				tables: []*Table{res.Table(), res.DisplacementTable()},
				csvs: []CSVFile{
					{"reordermatrix.csv", res.Table()},
					{"reordermatrix_displacement.csv", res.DisplacementTable()},
				},
			}
			return rep.finish(cfg, "reordermatrix")
		},
	},
	{
		Name:     "repairmatrix",
		Describe: "Repair-middlebox matrix: reorder models × repair boxes × every protocol",
		Run: func(cfg RunConfig) (Report, error) {
			c := RepairMatrixConfig{Seed: cfg.Seed, Obs: cfg.Obs}
			// Absolute simulated time, like the other matrices. Quick and
			// Smoke trim the run; Smoke also trims the protocol and model
			// axes to the headline comparison (the swap model punishes
			// dupack-threshold senders hardest, so it shows the repair
			// effect most clearly).
			if cfg.Smoke || cfg.Durations == Quick {
				c.Total = 12 * time.Second
			}
			if cfg.Smoke {
				c.Protocols = []string{workload.TCPPR, workload.NewReno, workload.TCPSACK}
				c.Models = []string{"swap-high"}
			}
			if cfg.Repair != "" {
				c.Boxes = []string{cfg.Repair}
			}
			res, err := RunRepairMatrix(c)
			if err != nil {
				return nil, err
			}
			rep := report{
				tables: []*Table{res.Table(), res.DetailTable()},
				csvs: []CSVFile{
					{"repairmatrix.csv", res.Table()},
					{"repairmatrix_detail.csv", res.DetailTable()},
				},
			}
			return rep.finish(cfg, "repairmatrix")
		},
	},
}
