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

// RepairMatrixConfig parameterizes the repair-middlebox matrix: every
// protocol runs a single long-lived flow over the default dumbbell while a
// canned reorder model scrambles the bottleneck's forward direction and a
// reorder-repair middlebox (internal/netem's RepairScenario catalog)
// optionally resequences the stream before delivery. The matrix asks the
// deployment question the paper's protocol-side fix sidesteps: how much of
// the reordering damage can an in-network box absorb, per protocol, and
// what does it cost when the box runs out of buffer.
type RepairMatrixConfig struct {
	// Protocols to compare; nil selects every registered variant.
	Protocols []string
	// Boxes names the repair scenarios to cross (netem's RepairScenario
	// catalog); nil selects the whole catalog, including the box-free
	// "none" baseline row.
	Boxes []string
	// Models names the reorder scenarios providing the adversary; nil
	// selects the persistent-reordering subset (swap-high, coalesce,
	// stripe) — the "none" reorder row is pointless here because a repair
	// box over an in-order stream is pure passthrough.
	Models []string
	// Total is the simulated run length; zero selects 30s.
	Total time.Duration
	// Seed derives each cell's reorder-model RNG via
	// sim.SplitSeed(Seed, cell) — the repair box itself is deterministic —
	// so a cell's artifacts are a pure function of (Seed, cell). Zero
	// selects 1.
	Seed int64
	// Obs is the run's telemetry session, as in ReorderMatrixConfig. With
	// checking on, every cell is audited against the repair-ledger rule:
	// custody must balance through the box and close at the horizon.
	Obs *runobs.Session
}

func (c *RepairMatrixConfig) fill() {
	if c.Protocols == nil {
		c.Protocols = workload.AllProtocols()
	}
	if c.Boxes == nil {
		c.Boxes = netem.RepairScenarioNames()
	}
	if c.Models == nil {
		c.Models = []string{"swap-high", "coalesce", "stripe"}
	}
	if c.Total == 0 {
		c.Total = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RepairMatrixCell is one (repair box, reorder model, protocol) outcome:
// goodput and retransmission load on the protocol side, the residual
// reordering the receiver still sees after the box, and the middlebox's
// own custody ledger.
type RepairMatrixCell struct {
	Box      string
	Model    string
	Protocol string
	// GoodputMbps is unique delivered payload over the whole run.
	GoodputMbps float64
	// RetxSegs counts retransmitted data segments. Under pure reordering
	// every one is spurious; a working repair box should drive this toward
	// the in-order baseline even for dupack-threshold senders.
	RetxSegs uint64
	// ReorderRate is the residual late-arrival fraction at the receiver
	// (RFC 4737), i.e. what the box failed to repair.
	ReorderRate float64
	// KBound is the residual maximum displacement at the receiver.
	KBound int64
	// Held / Released are the bottleneck's repair-custody counters (equal
	// at quiescence after Flush; the invariant checker audits the ledger).
	Held     uint64
	Released uint64
	// TimedOut counts packets released by the hold-timeout gap deadline.
	TimedOut uint64
	// OverflowForwarded / OverflowDropped count buffer-cap overflows per
	// policy outcome; Evicted counts packets flushed by flow-table
	// eviction (LRU or idle).
	OverflowForwarded uint64
	OverflowDropped   uint64
	Evicted           uint64
	// MeanHoldMs is the mean custody duration per released packet.
	MeanHoldMs float64
}

// RepairMatrixResult is the repair matrix plus the config that ran it.
type RepairMatrixResult struct {
	Cells  []RepairMatrixCell
	Config RepairMatrixConfig
}

// RunRepairMatrix runs every (box, model, protocol) cell and returns the
// matrix, box-major then model-major in the configured order.
func RunRepairMatrix(cfg RepairMatrixConfig) (RepairMatrixResult, error) {
	cfg.fill()
	cells, err := runMatrix(matrix{
		name: "repairmatrix",
		axes: []axis{
			{cfg.Boxes, catalog(netem.RepairScenarioByName)},
			{cfg.Models, catalog(netem.ReorderScenarioByName)},
			{names: cfg.Protocols},
		},
		total: cfg.Total,
		seed:  cfg.Seed,
		obs:   cfg.Obs,
	}, func(c *matrixCell) func() RepairMatrixCell { return repairCell(c, cfg) })
	return RepairMatrixResult{Cells: cells, Config: cfg}, err
}

// repairCell sets up one protocol's long-lived flow against one reorder
// model on the bottleneck's data direction, with one repair scenario's
// middlebox (or none) resequencing deliveries off the same link. The box
// is deterministic, so the cell is a pure function of (Seed, cell).
func repairCell(c *matrixCell, cfg RepairMatrixConfig) func() RepairMatrixCell {
	rsc, _ := netem.RepairScenarioByName(c.Key[0]) // runMatrix vouched for the names
	sc, _ := netem.ReorderScenarioByName(c.Key[1])
	proto := c.Key[2]
	if model := sc.New(sim.NewRand(c.Seed)); model != nil {
		c.DB.Bottleneck.SetReorderModel(model)
	}
	box := rsc.New()
	if box != nil {
		c.DB.Bottleneck.SetRepair(box)
	}
	f := c.Flow()
	meter := meterReordering(c, f)
	c.Scope.Flows(workload.NewFlow(f, proto, workload.PRParams{}, 0))

	return func() RepairMatrixCell {
		// The repair-ledger invariant requires custody to close at the
		// horizon: flush the box before the scope finishes, exactly as a
		// teardown would.
		if box != nil {
			box.Flush()
		}
		st := c.DB.Bottleneck.Stats()
		cell := RepairMatrixCell{
			Box:         rsc.Name,
			Model:       sc.Name,
			Protocol:    proto,
			GoodputMbps: stats.Mbps(stats.Throughput(f.UniqueBytes(), cfg.Total)),
			RetxSegs:    f.DataRetx(),
			ReorderRate: meter.Rate(),
			KBound:      meter.KBound(),
			Held:        st.RepairHeld,
			Released:    st.RepairReleased,
		}
		if box != nil {
			bs := box.Stats()
			cell.TimedOut = bs.TimedOut
			cell.OverflowForwarded = bs.OverflowForwarded
			cell.OverflowDropped = bs.OverflowDropped
			cell.Evicted = bs.Evicted
			if bs.Released > 0 {
				cell.MeanHoldMs = float64(bs.HoldTime.Milliseconds()) / float64(bs.Released)
			}
		}
		return cell
	}
}

// Table renders the repair matrix in long format: one row per cell with
// goodput, spurious-retransmission load, and the residual reordering.
func (r RepairMatrixResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: repair-middlebox matrix — single flow, 15 Mbps dumbbell, %v run, per-cell seeded models",
			r.Config.Total),
		Header: []string{"box", "model", "protocol", "goodput (Mbps)", "retx segs",
			"residual rate", "residual k", "held"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Box, c.Model, c.Protocol, f2(c.GoodputMbps), fmt.Sprintf("%d", c.RetxSegs),
			f3(c.ReorderRate), fmt.Sprintf("%d", c.KBound), fmt.Sprintf("%d", c.Held))
	}
	return t
}

// DetailTable renders every cell's middlebox custody ledger — the
// deterministic per-cell artifact the same-seed replay test compares byte
// for byte. Box-free cells show all-zero ledgers.
func (r RepairMatrixResult) DetailTable() *Table {
	t := &Table{
		Title: "Repair middlebox custody detail (per cell)",
		Header: []string{"box", "model", "protocol", "held", "released", "timed out",
			"ovfl fwd", "ovfl drop", "evicted", "mean hold (ms)"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Box, c.Model, c.Protocol,
			fmt.Sprintf("%d", c.Held), fmt.Sprintf("%d", c.Released),
			fmt.Sprintf("%d", c.TimedOut), fmt.Sprintf("%d", c.OverflowForwarded),
			fmt.Sprintf("%d", c.OverflowDropped), fmt.Sprintf("%d", c.Evicted),
			f2(c.MeanHoldMs))
	}
	return t
}
