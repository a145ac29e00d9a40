package engineobs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tcppr/internal/span"
)

// WatchdogConfig shapes a Watchdog.
type WatchdogConfig struct {
	// Timeout is the no-progress window: if the noted event total does
	// not advance for this long, the run is declared stalled. Required.
	Timeout time.Duration
	// Out receives the diagnostic bundle (default os.Stderr).
	Out io.Writer
	// Diagnose, when non-nil, appends run-specific diagnostics to the
	// bundle — typically Diagnostics(heartbeat, profiler). It runs on the
	// watchdog goroutine, so it must only read state its providers guard
	// themselves (both Heartbeat and Profiler do).
	Diagnose func(w io.Writer)
	// Flight, when non-nil, dumps the span flight recorder into the
	// bundle. The simulation may still be wedged mid-event when a stall
	// fires, so the snapshot is best-effort — the process is about to
	// abort anyway.
	Flight *span.FlightRecorder
	// OnStall runs after the bundle is written. The default exits the
	// process with status 3 — a stalled run must fail loudly, not hang
	// CI. Tests replace it to capture the stall.
	OnStall func()

	// poll overrides the check cadence for tests (default Timeout/4,
	// capped at 1s).
	poll time.Duration
}

// Watchdog detects a simulation that stopped making progress — an event
// loop livelocked without executing, or one psim shard stuck so the
// barrier never clears — and aborts with diagnostics instead of hanging.
//
// The design is push-only across goroutines: the simulation goroutine
// calls Note with its running event total (every heartbeat Beat does this
// automatically via SetWatchdog), and the watchdog goroutine reads only
// its own atomics plus the mutex-guarded snapshots inside Diagnose
// providers. It never touches scheduler state directly.
type Watchdog struct {
	cfg WatchdogConfig

	events       atomic.Uint64
	lastProgress atomic.Int64 // wall nanos of the last event-total advance
	stalled      atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewWatchdog builds a watchdog; Start arms it.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Timeout <= 0 {
		panic("engineobs: WatchdogConfig.Timeout must be positive")
	}
	if cfg.Out == nil {
		cfg.Out = os.Stderr
	}
	if cfg.OnStall == nil {
		cfg.OnStall = func() { os.Exit(3) }
	}
	if cfg.poll <= 0 {
		cfg.poll = cfg.Timeout / 4
		if cfg.poll > time.Second {
			cfg.poll = time.Second
		}
		if cfg.poll <= 0 {
			cfg.poll = time.Millisecond
		}
	}
	return &Watchdog{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// Note records the simulation's cumulative event total; the progress
// clock rearms whenever the total advances. Safe (and intended) to call
// from the simulation goroutine on every window or pulse; nil-receiver
// safe like the rest of the package.
func (w *Watchdog) Note(events uint64) {
	if w == nil {
		return
	}
	if events > w.events.Load() {
		w.events.Store(events)
		w.lastProgress.Store(time.Now().UnixNano())
	}
}

// Start arms the watchdog goroutine. The progress clock starts now, so a
// run that never executes a single event still trips after Timeout.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	w.lastProgress.Store(time.Now().UnixNano())
	go w.loop()
}

// Stop disarms the watchdog (idempotent). Call it the moment the run
// loop returns, before post-run reporting — a slow artifact write must
// not be mistaken for a stall.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *Watchdog) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.poll)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			idle := time.Since(time.Unix(0, w.lastProgress.Load()))
			if idle >= w.cfg.Timeout {
				w.stall(idle)
				return
			}
		}
	}
}

// stall assembles and writes the diagnostic bundle, then hands control to
// OnStall. The bundle is staged in memory so a wedged Out cannot stop the
// abort path from reaching OnStall with at least a partial write.
func (w *Watchdog) stall(idle time.Duration) {
	w.stalled.Store(true)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "engineobs: watchdog: no simulation progress for %s (timeout %s)\n",
		idle.Round(time.Millisecond), w.cfg.Timeout)
	fmt.Fprintf(&buf, "  events executed: %d\n", w.events.Load())
	if w.cfg.Diagnose != nil {
		w.cfg.Diagnose(&buf)
	}
	if w.cfg.Flight != nil {
		w.cfg.Flight.Dump("watchdog stall")
	}
	w.cfg.Out.Write(buf.Bytes())
	w.cfg.OnStall()
}

// Diagnostics composes the standard diagnostic bundle for a run wired
// with an optional heartbeat and profiler: the last beat's per-scheduler
// snapshot (events, queue depth, next event) and the profiler's summary
// plus last-window rows. Either may be nil.
func Diagnostics(hb *Heartbeat, prof *Profiler) func(io.Writer) {
	return func(w io.Writer) {
		hb.WriteSnapshot(w)
		prof.WriteDiagnostics(w)
	}
}
