package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// repeats every field; a test keeps the two equal.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before it counts as a regression. Per-layer
	// metrics have none.
	bound float64
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the simulator sees, the same seven on
// every workload. pkt is a unique data segment delivered to a receiver.
var endToEnd = []metricDef{
	{"sim_rate", "sim_s/wall_s", higher, 0.10},
	{"wall_ns_per_pkt", "ns/pkt", lower, 0.10},
	{"allocs_per_pkt", "allocs/pkt", lower, 0.15},
	{"alloc_bytes_per_pkt", "B/pkt", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.15},
	{"goodput_mbps", "Mbit/s", higher, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the metrics of single layers (layer = module of the
// simulator). README.md says which end-to-end metric each should move and
// on which workload. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	// Counters of the timed repetitions: exact and machine-independent.
	{"sim.events", "count", lower, 0},
	{"sim.events_per_pkt", "events/pkt", lower, 0},
	{"netem.hops", "count", lower, 0},
	{"netem.hops_per_pkt", "hops/pkt", lower, 0},
	{"netem.drops", "count", lower, 0},
	{"netem.drop_share", "share", lower, 0},
	{"netem.max_queue", "pkts", lower, 0},
	{"tcp.retx_share", "share", lower, 0},
	{"tcp.dup_seg_share", "share", lower, 0},
	{"tcp.reordered_share", "share", lower, 0},
	{"workload.flows_started", "count", higher, 0},
	{"workload.transfers_completed", "count", higher, 0},
	{"workload.pkts_per_flow", "pkts/flow", higher, 0},
	{"workload.allocs_per_flow", "allocs/flow", lower, 0},
	{"workload.wall_us_per_flow", "us/flow", lower, 0},
	{"psim.speedup_vs_1shard", "ratio", higher, 0},
	{"psim.alloc_ratio_vs_1shard", "ratio", lower, 0},
	{"psim.state_match_1shard", "bool", higher, 0},
	// Wall time of the traced repetition, taken by the wrappers.
	{"core.acks", "count", lower, 0},
	{"core.ns_per_ack", "ns", lower, 0},
	{"core.busy_share", "share", lower, 0},
	{"tcp.sender_acks", "count", lower, 0},
	{"tcp.sender_ns_per_ack", "ns", lower, 0},
	{"tcp.sender_busy_share", "share", lower, 0},
	{"tcp.receiver_segs", "count", lower, 0},
	{"tcp.receiver_ns_per_seg", "ns", lower, 0},
	{"routing.routes", "count", lower, 0},
	{"routing.ns_per_route", "ns", lower, 0},
	{"netem.transmit_ns_per_tx", "ns", lower, 0},
	{"sim.pending_p50", "events", lower, 0},
	{"sim.pending_max", "events", lower, 0},
	{"psim.windows", "count", lower, 0},
	{"psim.cross_msgs", "count", lower, 0},
	{"psim.msgs_per_window", "msgs/window", lower, 0},
	{"psim.execute_s", "s", lower, 0},
	{"psim.barrier_wait_s", "s", lower, 0},
	{"psim.exchange_s", "s", lower, 0},
	{"psim.p50_window_s", "s", lower, 0},
	{"psim.p99_window_s", "s", lower, 0},
	{"psim.busy_ratio", "ratio", lower, 0},
	{"psim.events_ratio", "ratio", lower, 0},
	// Kernels run after the traced repetition, and the cost budget.
	{"sim.kernel_ns_per_event", "ns", lower, 0},
	{"netem.kernel_ns_per_hop", "ns", lower, 0},
	{"budget.model_ns_per_pkt", "ns/pkt", lower, 0},
	{"budget.coverage", "share", higher, 0},
	{"budget.residual_ns_per_pkt", "ns/pkt", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
}

// sample is one metric's value over the repetitions of a run: the median
// is the value the benchmark reports, the quartiles say how far the
// repetitions scatter.
type sample struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// newSample summarizes values; none reads as all zeros.
func newSample(unit string, values []float64) sample {
	s := sample{Unit: unit, N: len(values)}
	if len(values) == 0 {
		return s
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s.Min, s.Q1, s.Median, s.Q3, s.Max = v[0], quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75), v[len(v)-1]
	return s
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(values []float64) float64 { return newSample("", values).Median }

// metricSet collects the values of one run by metric name.
type metricSet map[string]sample

func (m metricSet) put(defs []metricDef, name string, values ...float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = newSample(d.unit, values)
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// ratio is a/b, or 0 when b is 0: a share of nothing reads 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}
