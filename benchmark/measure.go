package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed int64
	// seconds is how long the timed repetitions go on; a repetition that
	// has started finishes.
	seconds float64
	trace   bool
	// scale shortens the workloads' horizons. The benchmark runs at 1; the
	// tests run a small fraction.
	scale float64
}

const (
	// minTimedReps are run even when the first ones overrun --seconds.
	minTimedReps = 3
	// setupBatches batches of setupBatchSize full builds are timed back to
	// back; the first batch is discarded as warm-up.
	setupBatches   = 26
	setupBatchSize = 20
	// controlReps of the control workload follow one discarded warm-up.
	controlReps = 3

	kernelEvents  = 2_000_000
	kernelPackets = 200_000
)

// runDoc is the outcome of one run of one workload as written to the JSON
// document: either its end-to-end half (--trace 0) or its per-layer half
// (--trace 1).
type runDoc struct {
	Correct      bool     `json:"correct"`
	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Failures     []string `json:"failures,omitempty"`
	// StateDigest and Events identify what was simulated; every repetition
	// of a run, with or without telemetry, must share them.
	StateDigest   string `json:"state_digest"`
	TrafficDigest string `json:"traffic_digest"`
	Events        uint64 `json:"sim_events"`
	TimedReps     int    `json:"timed_reps"`

	Metrics  metricSet             `json:"metrics"`
	Variants map[string]variantDoc `json:"sender_variants,omitempty"`
	Spans    []spanDoc             `json:"spans,omitempty"`
}

// variantDoc is the traced sender cost of one TCP variant.
type variantDoc struct {
	Acks      uint64  `json:"acks"`
	NsPerAck  float64 `json:"ns_per_ack"`
	BusyShare float64 `json:"busy_share"`
}

// measure runs one workload: an untimed warm-up repetition that is also
// the reference for what must be simulated, timed repetitions with nothing
// attached for opts.seconds, then either the set-up timing and the verify
// repetition (invariant checker attached) or the traced repetition
// (wrappers attached), the layer kernels and the control workload.
func measure(w workloadDef, opts runOpts) runDoc {
	ref := runRep(w, opts.seed, opts.scale, tap{}, nil)
	doc := runDoc{
		OpsAttempted:  ref.conns,
		StateDigest:   ref.digest,
		TrafficDigest: ref.traffic,
		Events:        ref.events,
		Metrics:       metricSet{},
	}
	timed := timedReps(w, opts, minTimedReps, opts.seconds)
	doc.TimedReps = len(timed)

	// judge folds one more repetition into the verdict: it must have
	// simulated exactly what the reference did, or nothing it measured
	// means anything and every operation counts as failed.
	failed := ref.failed()
	doc.Failures = append(doc.Failures, ref.broken...)
	judge := func(kind string, r *rep) {
		if !r.sameRun(&ref) {
			doc.Failures = append(doc.Failures, fmt.Sprintf("%s repetition diverged: digest %.12s events %d, reference %.12s events %d",
				kind, r.digest, r.events, ref.digest, ref.events))
			failed = ref.conns
		}
	}
	for i := range timed {
		judge("timed", &timed[i])
	}

	if opts.trace {
		traced := layerMetrics(w, opts, &doc, &ref, timed)
		judge("traced", traced)
	} else {
		verify := endToEndMetrics(w, opts, &doc, timed)
		judge("verify", verify)
		doc.Failures = append(doc.Failures, verify.broken...)
		if n := verify.failed(); n > failed {
			failed = n
		}
	}
	if ref.conns == 0 {
		doc.OpsAttempted, failed = 1, 1
		doc.Failures = append(doc.Failures, "no connection was simulated")
	}
	doc.OpsFailed = failed
	doc.Correct = failed == 0 && len(doc.Failures) == 0
	return doc
}

// timedReps runs at least atLeast repetitions with nothing attached and
// goes on until seconds have passed, collecting garbage before each so
// that one repetition's heap is not the next one's GC bill.
func timedReps(w workloadDef, opts runOpts, atLeast int, seconds float64) []rep {
	var out []rep
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out) < atLeast || time.Now().Before(deadline) {
		runtime.GC()
		out = append(out, runRep(w, opts.seed, opts.scale, tap{}, nil))
	}
	return out
}

// over maps every repetition to one value.
func over(reps []rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i] = f(&reps[i])
	}
	return out
}

func wallNs(r *rep) float64  { return float64(r.wall.Nanoseconds()) }
func mallocs(r *rep) float64 { return float64(r.mallocs) }

// endToEndMetrics fills the end-to-end half and returns the verify
// repetition. Peak RSS is read before the set-up builds and the checker
// add memory the simulator does not need.
func endToEndMetrics(w workloadDef, opts runOpts, doc *runDoc, timed []rep) *rep {
	m := doc.Metrics
	m.put(endToEnd, "sim_rate", over(timed, func(r *rep) float64 { return ratio(r.simSeconds, r.wall.Seconds()) })...)
	m.put(endToEnd, "wall_ns_per_pkt", over(timed, func(r *rep) float64 { return ratio(wallNs(r), float64(r.pkts)) })...)
	m.put(endToEnd, "allocs_per_pkt", over(timed, func(r *rep) float64 { return ratio(mallocs(r), float64(r.pkts)) })...)
	m.put(endToEnd, "alloc_bytes_per_pkt", over(timed, func(r *rep) float64 { return ratio(float64(r.allocBytes), float64(r.pkts)) })...)
	m.put(endToEnd, "goodput_mbps", over(timed, func(r *rep) float64 { return r.goodputMbps })...)
	rss, err := peakRSSMB()
	if err != nil {
		doc.Failures = append(doc.Failures, "peak RSS: "+err.Error())
	}
	m.put(endToEnd, "peak_rss_mb", rss)

	// One sample is the mean of a batch of back-to-back builds: a single
	// build takes 50 us to 1 ms, and whether a GC cycle falls into it would
	// decide the sample; a batch holds about the same share of them each
	// time. Collect first, so that every run starts its builds from the
	// same small heap whatever the timed repetitions left behind.
	runtime.GC()
	builds := make([]float64, 0, setupBatches)
	for i := 0; i < setupBatches; i++ {
		t0 := time.Now()
		for j := 0; j < setupBatchSize; j++ {
			w.build(opts.seed, opts.scale, tap{})
		}
		builds = append(builds, time.Since(t0).Seconds()/setupBatchSize)
	}
	m.put(endToEnd, "setup_s", builds[1:]...)

	verify := runRep(w, opts.seed, opts.scale, tap{check: true}, nil)
	return &verify
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// layerMetrics fills the per-layer half and returns the traced repetition.
func layerMetrics(w workloadDef, opts runOpts, doc *runDoc, ref *rep, timed []rep) *rep {
	m := doc.Metrics
	put := func(name string, v ...float64) { m.put(perLayer, name, v...) }
	pkts, conns := float64(ref.pkts), float64(ref.conns)
	wallMed := median(over(timed, wallNs))
	mallocMed := median(over(timed, mallocs))

	// Counters: the same on every repetition, on any machine.
	put("sim.events", float64(ref.events))
	put("sim.events_per_pkt", ratio(float64(ref.events), pkts))
	put("netem.hops", float64(ref.hops))
	put("netem.hops_per_pkt", ratio(float64(ref.hops), pkts))
	put("netem.drops", float64(ref.drops))
	put("netem.drop_share", ratio(float64(ref.drops), float64(ref.offered)))
	put("netem.max_queue", float64(ref.maxQueue))
	put("workload.flows_started", conns)
	put("workload.transfers_completed", float64(ref.transfers))
	put("workload.pkts_per_flow", ratio(pkts, conns))
	put("workload.allocs_per_flow", over(timed, func(r *rep) float64 { return ratio(mallocs(r), conns) })...)
	put("workload.wall_us_per_flow", over(timed, func(r *rep) float64 { return ratio(wallNs(r)/1e3, conns) })...)

	// The traced repetition.
	tr := newTracer()
	traced := runRep(w, opts.seed, opts.scale, tr.tap(), tr.samplePending)
	tracedWall := wallNs(&traced)
	put("trace.overhead_pct", 100*(ratio(tracedWall, wallMed)-1))

	var sent, retx, unique, dup, reordered float64
	for _, rt := range tr.recvs {
		rc := rt.flow.Receiver()
		sent += float64(rt.flow.DataSent())
		retx += float64(rt.flow.DataRetx())
		unique += float64(rc.UniqueSegs)
		dup += float64(rc.DupSegs)
		reordered += float64(rc.Reordered)
	}
	put("tcp.retx_share", ratio(retx, sent))
	put("tcp.dup_seg_share", ratio(dup, unique+dup))
	put("tcp.reordered_share", ratio(reordered, unique))

	coreAcks, coreSelf := tr.total(layerCore, spanSenderSelf, "")
	put("core.acks", float64(coreAcks))
	put("core.ns_per_ack", ratio(float64(coreSelf), float64(coreAcks)))
	put("core.busy_share", ratio(float64(coreSelf), tracedWall))
	tcpAcks, tcpSelf := tr.total(layerTCP, spanSenderSelf, "")
	put("tcp.sender_acks", float64(tcpAcks))
	put("tcp.sender_ns_per_ack", ratio(float64(tcpSelf), float64(tcpAcks)))
	put("tcp.sender_busy_share", ratio(float64(tcpSelf), tracedWall))
	for _, v := range tr.variants() {
		n, self := tr.total(senderLayer(v), spanSenderSelf, v)
		if doc.Variants == nil {
			doc.Variants = map[string]variantDoc{}
		}
		doc.Variants[v] = variantDoc{Acks: n, NsPerAck: ratio(float64(self), float64(n)), BusyShare: ratio(float64(self), tracedWall)}
	}

	segs, replay, mismatches := tr.replayReceivers()
	if mismatches > 0 {
		doc.Failures = append(doc.Failures, fmt.Sprintf("receiver replay ended in another state than the live receiver on %d flows", mismatches))
	}
	put("tcp.receiver_segs", float64(segs))
	put("tcp.receiver_ns_per_seg", ratio(float64(replay), float64(segs)))
	routes, routeNs := tr.total(layerRouting, spanRoute, "")
	put("routing.routes", float64(routes))
	put("routing.ns_per_route", ratio(float64(routeNs), float64(routes)))
	txs, txNs := tr.total(layerNetem, spanTransmit, "")
	put("netem.transmit_ns_per_tx", ratio(float64(txNs), float64(txs)))

	pending := newSample("", tr.pending)
	put("sim.pending_p50", pending.Median)
	put("sim.pending_max", pending.Max)

	cityProfile(tr, put)

	// Kernels, parameterised by the traced repetition.
	put("sim.kernel_ns_per_event", kernelScheduler(int(pending.Median), kernelEvents))
	net, path := w.bare()
	hopNs := kernelHops(net, path, kernelPackets)
	put("netem.kernel_ns_per_hop", hopNs)

	// Budget: what the layers measured alone add up to, per packet,
	// against what a packet costs end to end.
	tpkts := float64(traced.pkts)
	model := ratio(float64(coreSelf+tcpSelf), tpkts) + ratio(float64(txNs), tpkts) +
		ratio(float64(replay), tpkts) + ratio(float64(ref.hops), pkts)*hopNs
	measured := ratio(wallMed, pkts)
	put("budget.model_ns_per_pkt", model)
	put("budget.coverage", ratio(model, measured))
	put("budget.residual_ns_per_pkt", measured-model)

	controlMetrics(w, opts, ref, wallMed, mallocMed, put)

	doc.Spans = tr.docs()
	return &traced
}

// cityProfile reports the engine profile of a city workload; the
// sequential workloads have no engine and read 0.
func cityProfile(tr *tracer, put func(string, ...float64)) {
	var windows, msgs, execute, wait, exchange, p50, p99, busy, events float64
	if tr.profiler != nil {
		s := tr.profiler.Summary(0)
		windows, msgs = float64(s.Windows), float64(s.CrossShardMsgs)
		exchange, p50, p99 = s.ExchangeSeconds, s.P50WindowSeconds, s.P99WindowSeconds
		busy, events = s.BusyRatio, s.EventsRatio
		for _, sh := range s.PerShard {
			execute += sh.ExecuteSeconds
			wait += sh.WaitSeconds
		}
	}
	put("psim.windows", windows)
	put("psim.cross_msgs", msgs)
	put("psim.msgs_per_window", ratio(msgs, windows))
	put("psim.execute_s", execute)
	put("psim.barrier_wait_s", wait)
	put("psim.exchange_s", exchange)
	put("psim.p50_window_s", p50)
	put("psim.p99_window_s", p99)
	put("psim.busy_ratio", busy)
	put("psim.events_ratio", events)
}

// controlMetrics runs the workload's control (the same city on one shard)
// in this process and compares: how much faster, how many more
// allocations, and whether the traffic came out the same.
func controlMetrics(w workloadDef, opts runOpts, ref *rep, wallMed, mallocMed float64, put func(string, ...float64)) {
	var speedup, allocRatio, match float64
	if w.control != "" {
		cw, ok := findWorkload(w.control)
		if !ok {
			panic("benchmark: unknown control workload " + w.control)
		}
		runRep(cw, opts.seed, opts.scale, tap{}, nil)
		control := timedReps(cw, opts, controlReps, 0)
		cWall := median(over(control, wallNs))
		cMallocs := median(over(control, mallocs))
		speedup = ratio(cWall, wallMed)
		allocRatio = ratio(mallocMed, cMallocs)
		if control[0].traffic == ref.traffic {
			match = 1
		}
	}
	put("psim.speedup_vs_1shard", speedup)
	put("psim.alloc_ratio_vs_1shard", allocRatio)
	put("psim.state_match_1shard", match)
}
