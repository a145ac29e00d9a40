package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/psim"
	"tcppr/internal/runobs"
	"tcppr/internal/topo"
)

// CityConfig sizes the sharded-city scaling experiment: one fixed workload
// (districts of on/off web sources plus backbone bulk flows) run at each
// requested shard count, reporting simulated-seconds-per-wall-second and
// the speedup over the single-shard run. The workload is identical at
// every shard count — that is the point of the comparison — so the table
// isolates the parallel engine's scaling.
type CityConfig struct {
	City        topo.CityConfig
	ShardCounts []int
	Seed        int64
	Horizon     time.Duration
	// SourcesPerHost is forwarded to psim.CityRun (default 1).
	SourcesPerHost int
	// Obs, when non-nil, is the run's telemetry session: checking arms
	// the per-shard conformance checkers, and the engine telemetry
	// (window profiler, heartbeat, watchdog) rides every cell.
	Obs *runobs.Session
}

// CityScalingResult is the sweep outcome, one CityResult per shard count
// in ShardCounts order.
type CityScalingResult struct {
	Cfg  CityConfig
	Runs []psim.CityResult
}

// RunCityScaling runs the city cell once per shard count.
func RunCityScaling(cfg CityConfig) (CityScalingResult, error) {
	res := CityScalingResult{Cfg: cfg}
	for _, shards := range cfg.ShardCounts {
		run, err := cfg.Obs.RunCity(fmt.Sprintf("city_%dshard", shards), "city", psim.CityRun{
			City:           cfg.City,
			Shards:         shards,
			Seed:           cfg.Seed,
			Horizon:        cfg.Horizon,
			SourcesPerHost: cfg.SourcesPerHost,
		}, nil)
		if err != nil {
			return res, fmt.Errorf("city %d shards: %w", shards, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// Table renders the scaling sweep. Speedup is relative to the slowest
// run's rate when a 1-shard run is absent, and to the 1-shard run when
// present.
func (r CityScalingResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("City scaling: %d districts x %d hosts, horizon %v",
			r.Cfg.City.Districts, r.Cfg.City.HostsPerDistrict, r.Cfg.Horizon),
		Header: []string{"shards", "flows", "transfers", "events", "sim_s", "wall_s", "sim_s/wall_s", "speedup"},
	}
	var base float64
	for _, run := range r.Runs {
		if run.Shards == 1 {
			base = run.SimRate()
		}
	}
	if base == 0 && len(r.Runs) > 0 {
		base = r.Runs[0].SimRate()
	}
	for _, run := range r.Runs {
		speedup := "-"
		if base > 0 {
			speedup = f2(run.SimRate() / base)
		}
		t.AddRow(
			fmt.Sprintf("%d", run.Shards),
			fmt.Sprintf("%d", run.Flows),
			fmt.Sprintf("%d", run.Transfers),
			fmt.Sprintf("%d", run.Events),
			f2(run.SimSeconds),
			f3(run.WallSeconds),
			f2(run.SimRate()),
			speedup,
		)
	}
	return t
}
