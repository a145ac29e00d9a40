package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// runTraced runs one flow over the given router pair and returns its
// recorder.
func runTraced(t *testing.T, eps float64, dur time.Duration) *Recorder {
	t.Helper()
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, 10*time.Millisecond)
	fwd := routing.NewEpsilon(m.FwdPaths, eps, sim.NewRand(1))
	rev := routing.NewEpsilon(m.RevPaths, eps, sim.NewRand(2))
	f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	rec := NewRecorder()
	rec.Attach(f)
	workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0)
	sched.RunUntil(dur)
	return rec
}

func TestRecorderCapturesAllEventKinds(t *testing.T) {
	rec := runTraced(t, 500, 2*time.Second)
	for _, k := range []Kind{DataSent, DataRecv, AckSent, AckRecv} {
		if countKind(rec, k) == 0 {
			t.Errorf("no events of kind %c recorded", k)
		}
	}
	// Single-path: sends and receives must match (no queue drops at this
	// load) and no reordering occurs.
	if rec.ReorderRate() != 0 {
		t.Errorf("single-path run shows reorder rate %v", rec.ReorderRate())
	}
}

func TestRecorderMeasuresReorderingUnderMultipath(t *testing.T) {
	rec := runTraced(t, 0, 3*time.Second)
	if rec.ReorderRate() < 0.05 {
		t.Errorf("eps=0 multipath reorder rate = %v, want substantial", rec.ReorderRate())
	}
	_, med, max := rec.ReorderExtents()
	if med <= 0 || max < med {
		t.Errorf("reorder extents (med=%d,max=%d) inconsistent", med, max)
	}
}

func TestRecorderChainsExistingHooks(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	var prevCalls int
	f.Hooks.OnDataSent = func(tcp.Seg, sim.Time) { prevCalls++ }
	rec := NewRecorder()
	rec.Attach(f)
	workload.NewFlow(f, workload.TCPSACK, workload.PRParams{}, 0)
	sched.RunUntil(time.Second)
	if prevCalls == 0 {
		t.Error("pre-existing hook was not chained")
	}
	if countKind(rec, DataSent) != prevCalls {
		t.Errorf("recorder saw %d sends, chained hook %d", countKind(rec, DataSent), prevCalls)
	}
}

func TestWriteTSV(t *testing.T) {
	rec := &Recorder{Events: []Event{
		{At: 1500 * time.Millisecond, Kind: DataSent, Seq: 7},
		{At: 1600 * time.Millisecond, Kind: AckRecv, Seq: 7, Cum: 8, Retx: true},
	}}
	var buf bytes.Buffer
	if err := rec.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "1.500000\ts\t7\t0\t0") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.600000\tk\t7\t8\t1") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

func TestReorderExtentsEmpty(t *testing.T) {
	rec := NewRecorder()
	mn, md, mx := rec.ReorderExtents()
	if mn != 0 || md != 0 || mx != 0 {
		t.Error("empty recorder must report zero extents")
	}
	if rec.ReorderRate() != 0 {
		t.Error("empty recorder must report zero reorder rate")
	}
}

// countKind returns the number of recorded events of one kind.
func countKind(r *Recorder, k Kind) int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
