package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/workload"
)

// ReorderMatrixConfig parameterizes the reordering survival matrix: every
// protocol runs a single long-lived flow over the default dumbbell while
// each canned reorder model (internal/netem's ReorderScenario catalog)
// scrambles the bottleneck's forward direction. Where the fault matrix
// breaks the network and the churn matrix breaks the endpoints, this one
// reproduces the paper's own adversary — *persistent* packet reordering —
// from three mechanistically different sources: bounded-displacement
// swaps, NIC interrupt-coalescing batch release, and multipath striping.
type ReorderMatrixConfig struct {
	// Protocols to compare; nil selects every registered variant.
	Protocols []string
	// Models names the reorder scenarios to run; nil selects the whole
	// catalog, including the in-order "none" baseline row.
	Models []string
	// Total is the simulated run length; zero selects 30s.
	Total time.Duration
	// Seed derives each cell's model RNG via sim.SplitSeed(Seed, cell),
	// so a cell's arrival permutation — and therefore its artifacts — is
	// a pure function of (Seed, cell). Zero selects 1.
	Seed int64
	// Obs is the run's telemetry session, as in FaultMatrixConfig. With
	// metrics on, each cell additionally samples the reordering
	// trajectories (reorder.rate / reorder.kbound / reorder.footrule).
	Obs *runobs.Session
}

func (c *ReorderMatrixConfig) fill() {
	if c.Protocols == nil {
		c.Protocols = workload.AllProtocols()
	}
	if c.Models == nil {
		c.Models = netem.ReorderScenarioNames()
	}
	if c.Total == 0 {
		c.Total = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ReorderMatrixCell is one (reorder model, protocol) outcome: goodput and
// retransmissions on the protocol side, and the measured reordering
// process on the network side — late-arrival rate, displacement
// distribution, and the two almost-sorted measures (k-bound, footrule).
type ReorderMatrixCell struct {
	Model    string
	Protocol string
	// GoodputMbps is unique delivered payload over the whole run.
	GoodputMbps float64
	// RetxSegs counts retransmitted data segments — under pure
	// reordering every one of them is spurious, so this column is the
	// "wasted work" the paper's timer-based detection avoids.
	RetxSegs uint64
	// ReorderRate is the fraction of data arrivals that were late
	// (RFC 4737 reordered-packet ratio), as measured at the receiver.
	ReorderRate float64
	// Footrule is the normalized Spearman footrule: mean positions-late
	// per arrival across the stream.
	Footrule float64
	// KBound is the maximum observed displacement — the stream arrived
	// as a k-almost-sorted permutation with this k.
	KBound int64
	// LateArrivals is the absolute count of late data arrivals.
	LateArrivals uint64
	// Held / Released are the bottleneck's reorder-custody counters
	// (equal at quiescence; the invariant checker audits the ledger).
	Held     uint64
	Released uint64
	// Hist is the displacement distribution: Hist[d-1] arrivals were
	// exactly d positions late, up to the tracked cap; Overflow counts
	// the rest.
	Hist     []uint64
	Overflow uint64
}

// ReorderMatrixResult is the reorder matrix plus the config that ran it.
type ReorderMatrixResult struct {
	Cells  []ReorderMatrixCell
	Config ReorderMatrixConfig
}

// RunReorderMatrix runs every (model, protocol) cell and returns the
// matrix, model-major in the configured order.
func RunReorderMatrix(cfg ReorderMatrixConfig) (ReorderMatrixResult, error) {
	cfg.fill()
	cells, err := runMatrix(matrix{
		name:   "reordermatrix",
		axes:   []axis{{cfg.Models, catalog(netem.ReorderScenarioByName)}, {names: cfg.Protocols}},
		total:  cfg.Total,
		seed:   cfg.Seed,
		params: map[string]float64{"meter_cap": meterCap},
		obs:    cfg.Obs,
	}, func(c *matrixCell) func() ReorderMatrixCell { return reorderCell(c, cfg) })
	return ReorderMatrixResult{Cells: cells, Config: cfg}, err
}

// reorderCell sets up one protocol's long-lived flow against one reorder
// model on the bottleneck's data direction.
func reorderCell(c *matrixCell, cfg ReorderMatrixConfig) func() ReorderMatrixCell {
	sc, _ := netem.ReorderScenarioByName(c.Key[0]) // runMatrix vouched for the name
	proto := c.Key[1]
	if model := sc.New(sim.NewRand(c.Seed)); model != nil {
		c.DB.Bottleneck.SetReorderModel(model)
	}
	f := c.Flow()
	meter := meterReordering(c, f)
	c.Scope.Flows(workload.NewFlow(f, proto, workload.PRParams{}, 0))

	return func() ReorderMatrixCell {
		st := c.DB.Bottleneck.Stats()
		return ReorderMatrixCell{
			Model:        sc.Name,
			Protocol:     proto,
			GoodputMbps:  stats.Mbps(stats.Throughput(f.UniqueBytes(), cfg.Total)),
			RetxSegs:     f.DataRetx(),
			ReorderRate:  meter.Rate(),
			Footrule:     meter.Footrule(),
			KBound:       meter.KBound(),
			LateArrivals: meter.Late(),
			Held:         st.ReorderHeld,
			Released:     st.ReorderReleased,
			Hist:         meter.Histogram(),
			Overflow:     meter.Overflow(),
		}
	}
}

// Table renders the reorder matrix in long format: one row per cell with
// goodput, spurious-retransmission load, and the reordering measures.
func (r ReorderMatrixResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: reordering survival matrix — single flow, 15 Mbps dumbbell, %v run, per-cell seeded models",
			r.Config.Total),
		Header: []string{"model", "protocol", "goodput (Mbps)", "retx segs",
			"reorder rate", "footrule", "k-bound", "late"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Model, c.Protocol, f2(c.GoodputMbps), fmt.Sprintf("%d", c.RetxSegs),
			f3(c.ReorderRate), f3(c.Footrule), fmt.Sprintf("%d", c.KBound),
			fmt.Sprintf("%d", c.LateArrivals))
	}
	return t
}

// DisplacementTable renders every cell's displacement distribution as
// one long table — the deterministic per-cell artifact the same-seed
// replay test compares byte for byte.
func (r ReorderMatrixResult) DisplacementTable() *Table {
	t := &Table{
		Title:  "Reordering displacement distribution (late arrivals by positions displaced)",
		Header: []string{"model", "protocol", "displacement", "count"},
	}
	for _, c := range r.Cells {
		for d, n := range c.Hist {
			if n == 0 {
				continue
			}
			t.AddRow(c.Model, c.Protocol, fmt.Sprintf("%d", d+1), fmt.Sprintf("%d", n))
		}
		if c.Overflow > 0 {
			t.AddRow(c.Model, c.Protocol, fmt.Sprintf(">%d", len(c.Hist)), fmt.Sprintf("%d", c.Overflow))
		}
	}
	return t
}
