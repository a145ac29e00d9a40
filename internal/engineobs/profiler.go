package engineobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/span"
)

// DefaultMaxWindows caps the per-window rows a Profiler retains. The
// per-shard aggregates (and so the imbalance summary) keep accumulating
// past the cap; only the row-level TSV/trace detail is truncated, and
// Summary reports how many windows were dropped.
const DefaultMaxWindows = 4096

// DefaultStragglerRatio is the max/min imbalance ratio past which Summary
// flags a straggler shard.
const DefaultStragglerRatio = 1.5

// Row is one shard's record of one barrier window.
type Row struct {
	Window  int
	Shard   int
	Start   sim.Time // window's virtual interval (Start, End]
	End     sim.Time
	Events  uint64        // events executed by this shard in the window
	Outbox  int           // cross-boundary messages emitted in the window
	Execute time.Duration // wall time executing events
	Wait    time.Duration // wall time waiting at the barrier
}

// windowRow is the per-window (cross-shard) record.
type windowRow struct {
	window   int
	start    sim.Time
	end      sim.Time
	wall     time.Duration // WindowStart→WindowEnd wall latency
	exchange time.Duration
	messages int
}

// Profiler records the psim barrier loop's wall-clock anatomy. It
// implements psim.EngineObserver; attach with Engine.SetObserver. The
// engine invokes it single-threaded between windows; the mutex exists for
// concurrent readers (the watchdog's diagnostic dump).
type Profiler struct {
	mu         sync.Mutex
	shards     int
	maxWindows int

	rows     []Row       // retained per-shard rows, window-major
	windows  []windowRow // retained per-window records
	lastRows []Row       // most recent window's rows, always current

	totWindows  int
	totEvents   uint64
	totMessages int
	totExchange time.Duration
	perShard    []shardTotals

	curStart  sim.Time
	curEnd    sim.Time
	curWindow int
	wallStart time.Time
}

type shardTotals struct {
	events  uint64
	outbox  int
	execute time.Duration
	wait    time.Duration
}

// NewProfiler returns a profiler for an engine with the given shard count
// (psim: len(Engine.Shards())).
func NewProfiler(shards int) *Profiler {
	if shards < 1 {
		shards = 1
	}
	return &Profiler{
		shards:     shards,
		maxWindows: DefaultMaxWindows,
		perShard:   make([]shardTotals, shards),
		lastRows:   make([]Row, shards),
	}
}

// WindowStart implements EngineObserver.
func (p *Profiler) WindowStart(window int, start, end sim.Time) {
	p.mu.Lock()
	p.curWindow, p.curStart, p.curEnd = window, start, end
	p.wallStart = time.Now()
	p.mu.Unlock()
}

// ShardWindow implements EngineObserver.
func (p *Profiler) ShardWindow(shard, window int, events uint64, outbox int, execute, wait time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if shard < 0 || shard >= p.shards {
		return
	}
	row := Row{
		Window: window, Shard: shard, Start: p.curStart, End: p.curEnd,
		Events: events, Outbox: outbox, Execute: execute, Wait: wait,
	}
	p.lastRows[shard] = row
	if window < p.maxWindows {
		p.rows = append(p.rows, row)
	}
	t := &p.perShard[shard]
	t.events += events
	t.outbox += outbox
	t.execute += execute
	t.wait += wait
	p.totEvents += events
}

// WindowEnd implements EngineObserver.
func (p *Profiler) WindowEnd(window int, end sim.Time, messages int, exchange time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totWindows++
	p.totMessages += messages
	p.totExchange += exchange
	if window < p.maxWindows {
		p.windows = append(p.windows, windowRow{
			window: window, start: p.curStart, end: p.curEnd,
			wall: time.Since(p.wallStart), exchange: exchange, messages: messages,
		})
	}
}

// ShardSummary is one shard's share of a run.
type ShardSummary struct {
	Shard          int     `json:"shard"`
	Events         uint64  `json:"events"`
	OutboxMsgs     int     `json:"outbox_msgs"`
	ExecuteSeconds float64 `json:"execute_s"`
	WaitSeconds    float64 `json:"wait_s"`
	// BusyShare is execute / (execute + wait): the fraction of this
	// shard's barrier-loop wall time spent doing work rather than waiting
	// for stragglers.
	BusyShare float64 `json:"busy_share"`
}

// Summary is the aggregated profile: load-imbalance ratios, window
// latency percentiles, and per-shard totals.
type Summary struct {
	Shards          int    `json:"shards"`
	Windows         int    `json:"windows"`
	RetainedWindows int    `json:"retained_windows"`
	Events          uint64 `json:"events"`
	CrossShardMsgs  int    `json:"cross_shard_msgs"`

	ExchangeSeconds  float64 `json:"exchange_s"`
	P50WindowSeconds float64 `json:"p50_window_s"`
	P99WindowSeconds float64 `json:"p99_window_s"`

	// BusyRatio is max/min over shards of total execute wall time; 1.0 is
	// perfect balance. EventsRatio is the same over events executed — the
	// deterministic (machine-independent) imbalance measure.
	BusyRatio   float64 `json:"busy_ratio"`
	EventsRatio float64 `json:"events_ratio"`
	// Straggler is the index of the shard flagged as overloaded, or -1
	// when the run is balanced (both ratios under the threshold).
	Straggler int `json:"straggler"`
	// StragglerRatio is the threshold Straggler was judged against.
	StragglerRatio float64 `json:"straggler_ratio"`

	PerShard []ShardSummary `json:"per_shard"`
}

// Summary aggregates the profile. threshold is the max/min ratio past
// which a straggler is flagged; <= 0 selects DefaultStragglerRatio. The
// deterministic events ratio is consulted first, so a systematically
// overloaded partition is flagged by the same shard on every run; the
// wall-clock busy ratio catches stragglers whose event counts look even
// (one shard on a busy core, say).
func (p *Profiler) Summary(threshold float64) Summary {
	if threshold <= 0 {
		threshold = DefaultStragglerRatio
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	s := Summary{
		Shards:          p.shards,
		Windows:         p.totWindows,
		RetainedWindows: len(p.windows),
		Events:          p.totEvents,
		CrossShardMsgs:  p.totMessages,
		ExchangeSeconds: p.totExchange.Seconds(),
		Straggler:       -1,
		StragglerRatio:  threshold,
	}
	lat := make([]float64, len(p.windows))
	for i, w := range p.windows {
		lat[i] = w.wall.Seconds()
	}
	sort.Float64s(lat)
	s.P50WindowSeconds = percentile(lat, 0.50)
	s.P99WindowSeconds = percentile(lat, 0.99)

	maxBusyShard, maxEventsShard := 0, 0
	var minBusy, maxBusy, minEvents, maxEvents float64
	for i, t := range p.perShard {
		busy := t.execute.Seconds()
		ev := float64(t.events)
		total := t.execute + t.wait
		share := 0.0
		if total > 0 {
			share = busy / total.Seconds()
		}
		s.PerShard = append(s.PerShard, ShardSummary{
			Shard: i, Events: t.events, OutboxMsgs: t.outbox,
			ExecuteSeconds: busy, WaitSeconds: t.wait.Seconds(), BusyShare: share,
		})
		if i == 0 || busy < minBusy {
			minBusy = busy
		}
		if i == 0 || busy > maxBusy {
			maxBusy, maxBusyShard = busy, i
		}
		if i == 0 || ev < minEvents {
			minEvents = ev
		}
		if i == 0 || ev > maxEvents {
			maxEvents, maxEventsShard = ev, i
		}
	}
	s.BusyRatio = ratio(maxBusy, minBusy)
	s.EventsRatio = ratio(maxEvents, minEvents)
	switch {
	case s.EventsRatio >= threshold:
		s.Straggler = maxEventsShard
	case s.BusyRatio >= threshold:
		s.Straggler = maxBusyShard
	}
	return s
}

func ratio(max, min float64) float64 {
	if min <= 0 {
		if max <= 0 {
			return 1
		}
		return max // degenerate: an idle shard; report the raw max
	}
	return max / min
}

// percentile returns the q-quantile of an ascending-sorted slice
// (nearest-rank; 0 for an empty slice).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteTSV renders the retained per-shard window rows. The exchange and
// whole-window wall columns are per-window quantities, repeated on each
// of the window's shard rows so every row is self-contained.
func (p *Profiler) WriteTSV(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "window\tshard\tstart_s\tend_s\tevents\toutbox\texecute_us\twait_us\texchange_us\twindow_wall_us")
	for _, r := range p.rows {
		var win windowRow
		if r.Window < len(p.windows) {
			win = p.windows[r.Window]
		}
		fmt.Fprintf(bw, "%d\t%d\t%.6f\t%.6f\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
			r.Window, r.Shard,
			time.Duration(r.Start).Seconds(), time.Duration(r.End).Seconds(),
			r.Events, r.Outbox,
			us(r.Execute), us(r.Wait), us(win.exchange), us(win.wall))
	}
	return bw.Flush()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteSummaryJSON renders Summary(threshold) as indented JSON.
func (p *Profiler) WriteSummaryJSON(w io.Writer, threshold float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Summary(threshold))
}

// Perfetto process-ID layout for the engine lanes. The numbers live far
// above internal/span's packet-trace pids so a merged view keeps both
// readable.
const (
	pidEngine      = 900000 // barrier instants, cross-shard message counters
	pidEngineShard = 900001 // + shard index: one lane per shard
)

// WriteChromeTrace renders the retained windows as Perfetto lanes: one
// track per shard carrying a complete span per window (on the virtual
// time axis, so it aligns with internal/span packet traces), with the
// wall-clock execute/wait breakdown and event counts in the span args;
// barrier instants and a cross-shard message counter land on a shared
// engine track. The output satisfies span.ValidateChromeTrace.
func (p *Profiler) WriteChromeTrace(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b span.TraceBuilder
	b.Process(pidEngine, "psim engine")
	for s := 0; s < p.shards; s++ {
		b.Process(pidEngineShard+s, fmt.Sprintf("shard %d", s))
	}
	for _, r := range p.rows {
		b.Complete(pidEngineShard+r.Shard, 0, fmt.Sprintf("window %d", r.Window),
			r.Start, r.End, map[string]any{
				"events":     r.Events,
				"outbox":     r.Outbox,
				"execute_us": us(r.Execute),
				"wait_us":    us(r.Wait),
			})
	}
	for _, win := range p.windows {
		b.Instant(pidEngine, 0, "barrier", win.end, false, map[string]any{
			"window":      win.window,
			"exchange_us": us(win.exchange),
			"messages":    win.messages,
		})
		b.Counter(pidEngine, "cross-shard msgs", win.start, map[string]any{"msgs": win.messages})
	}
	return b.Write(w)
}

// WriteDiagnostics renders the watchdog-facing state: the aggregate
// summary plus the most recent window's per-shard rows (which, during a
// barrier stall, show which shard never reported).
func (p *Profiler) WriteDiagnostics(w io.Writer) {
	if p == nil {
		return
	}
	sum := p.Summary(0)
	fmt.Fprintf(w, "profiler: %d windows, %d events, busy ratio %.2f, events ratio %.2f, p99 window %.3fs\n",
		sum.Windows, sum.Events, sum.BusyRatio, sum.EventsRatio, sum.P99WindowSeconds)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.lastRows {
		fmt.Fprintf(w, "  shard %d: last window %d (%v..%v) events %d outbox %d execute %v wait %v\n",
			r.Shard, r.Window, time.Duration(r.Start), time.Duration(r.End),
			r.Events, r.Outbox, r.Execute, r.Wait)
	}
}
