package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"tcppr/internal/tcp"
	"tcppr/internal/workload"
)

// testScale shortens every horizon so the whole file runs in seconds. It
// is long enough that every long-lived flow starts.
const testScale = 0.05

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		a := runRep(w, 7, testScale, tap{}, nil)
		b := runRep(w, 7, testScale, tap{}, nil)
		if !a.sameRun(&b) {
			t.Errorf("%s: same seed, digests %.12s and %.12s, events %d and %d", w.name, a.digest, b.digest, a.events, b.events)
		}
		c := runRep(w, 8, testScale, tap{}, nil)
		if c.digest == a.digest {
			t.Errorf("%s: seeds 7 and 8 share digest %.12s: the seed reaches no input", w.name, a.digest)
		}
		if a.pkts == 0 || a.conns == 0 || a.events == 0 {
			t.Errorf("%s: nothing simulated: %d pkts, %d connections, %d events", w.name, a.pkts, a.conns, a.events)
		}
	}
}

// Telemetry must not perturb dynamics: the verify repetition (invariant
// checker) and the traced repetition (wrappers, chunked run loop) simulate
// exactly what a timed repetition does.
func TestVerifyAndTracedMatchTimed(t *testing.T) {
	for _, w := range workloads {
		timed := runRep(w, 7, testScale, tap{}, nil)
		verify := runRep(w, 7, testScale, tap{check: true}, nil)
		if !verify.sameRun(&timed) {
			t.Errorf("%s: verify repetition diverged from the timed one", w.name)
		}
		if verify.violators != 0 {
			t.Errorf("%s: %d connections violate an invariant: %v", w.name, verify.violators, verify.broken)
		}
		tr := newTracer()
		traced := runRep(w, 7, testScale, tr.tap(), tr.samplePending)
		if !traced.sameRun(&timed) {
			t.Errorf("%s: traced repetition diverged from the timed one", w.name)
		}
		if len(tr.pending) == 0 {
			t.Errorf("%s: traced repetition sampled no event queue", w.name)
		}
		if _, _, mismatches := tr.replayReceivers(); mismatches != 0 {
			t.Errorf("%s: %d receiver replays ended in another state than the live receiver", w.name, mismatches)
		}
	}
}

// mute is a sender that never sends.
type mute struct{}

func (mute) Start()        {}
func (mute) OnAck(tcp.Ack) {}

func TestBrokenSenderCountsAsFailed(t *testing.T) {
	w, _ := findWorkload("bulk-dumbbell")
	broken := 0
	r := runRep(w, 7, testScale, tap{
		wrapSender: func(_ *cell, _ string, mk workload.SenderFactory) workload.SenderFactory {
			broken++
			if broken > 1 {
				return mk
			}
			return func(tcp.SenderEnv) tcp.Sender { return mute{} }
		},
	}, nil)
	if r.stalled != 1 || r.failed() != 1 {
		t.Errorf("one mute sender of %d flows: stalled %d, failed %d, want 1 and 1", r.conns, r.stalled, r.failed())
	}
	healthy := runRep(w, 7, testScale, tap{}, nil)
	if healthy.failed() != 0 {
		t.Errorf("healthy run: %d failed operations: %v", healthy.failed(), healthy.broken)
	}
}

func TestShapeCheckTaintsEveryOperation(t *testing.T) {
	msg := multipathShape(map[string]float64{"TCP-PR/eps=0": 5, "DSACK-NM/eps=0": 2, "TD-FR/eps=0": 4})
	if !strings.Contains(msg, "DSACK-NM") {
		t.Errorf("DSACK-NM at 40%% of TCP-PR passed the shape check: %q", msg)
	}
	if msg := multipathShape(map[string]float64{"TCP-PR/eps=0": 5, "TD-FR/eps=0": 6}); !strings.Contains(msg, "TD-FR") {
		t.Errorf("TD-FR above TCP-PR passed the shape check: %q", msg)
	}
	r := rep{conns: 12, broken: []string{"paper shape"}}
	if r.failed() != 12 {
		t.Errorf("a broken repetition fails %d of 12 operations, want all", r.failed())
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every name in BENCHMARK.json is declared by the program with the same
// unit, direction and bound, and the other way round.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the format", w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s metric %q (%q): outside the format or declared twice", kind, d.name, d.unit)
			}
			seen[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s metric %q: bound %v in BENCHMARK.json, %v in the program; must agree and lie in (0, 0.25]", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %q: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

// A run emits exactly the declared metrics of its half, on every workload.
func TestRunEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		for _, half := range []struct {
			trace bool
			defs  []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			doc := measure(w, runOpts{seed: 7, seconds: 0.01, trace: half.trace, scale: testScale})
			if len(doc.Metrics) != len(half.defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, half.trace, len(doc.Metrics), len(half.defs))
			}
			for _, d := range half.defs {
				s, ok := doc.Metrics[d.name]
				if !ok || s.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %q missing or in unit %q, want %q", w.name, half.trace, d.name, s.Unit, d.unit)
				}
				if !half.trace && s.Median <= 0 {
					t.Errorf("%s: end-to-end metric %q reads %v; it must never be 0", w.name, d.name, s.Median)
				}
			}
			if doc.TimedReps < minTimedReps || doc.OpsAttempted == 0 {
				t.Errorf("%s trace=%v: %d timed repetitions, %d operations", w.name, half.trace, doc.TimedReps, doc.OpsAttempted)
			}
			for _, f := range doc.Failures {
				if strings.Contains(f, "diverged") {
					t.Errorf("%s trace=%v: %s", w.name, half.trace, f)
				}
			}
			var line bytes.Buffer
			printResult(&line, &doc)
			var res map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &res); err != nil || len(res) != 4 {
				t.Errorf("%s trace=%v: result line %q: %v", w.name, half.trace, line.String(), err)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	rate := metricDef{"sim_rate", "sim_s/wall_s", higher, 0.10}
	cost := metricDef{"wall_ns_per_pkt", "ns/pkt", lower, 0.10}
	s := func(med, lo, hi float64) sample { return newSample("", []float64{lo, lo, med, hi, hi}) }
	for _, c := range []struct {
		d    metricDef
		a, b sample
		want string
	}{
		{rate, s(100, 99, 101), s(98, 97, 99), verdictOK},
		{rate, s(100, 99, 101), s(85, 84, 86), verdictRegressed},
		{cost, s(100, 99, 101), s(115, 114, 116), verdictRegressed},
		{cost, s(100, 99, 101), s(85, 84, 86), verdictOK},
		{rate, s(100, 90, 110), s(101, 99, 103), verdictUnresolved},
		{rate, s(100, 99, 101), s(130, 115, 145), verdictOK}, // wide, but every repetition wins
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareDocumentsCountsRegressionsAndFailures(t *testing.T) {
	mk := func(rate float64, failed int, digest string) *document {
		doc := newDocument(42, 8)
		rd := &runDoc{Correct: failed == 0, OpsAttempted: 8, OpsFailed: failed, StateDigest: digest, Metrics: metricSet{}}
		rd.Metrics.put(endToEnd, "sim_rate", rate, rate*1.01, rate*0.99)
		doc.Workloads["bulk-dumbbell"] = &workloadDoc{EndToEnd: rd}
		return doc
	}
	var out bytes.Buffer
	if bad := compareDocuments(mk(100, 0, "aa"), mk(99, 0, "aa"), &out); bad != 0 {
		t.Errorf("equal documents: %d bad rows\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareDocuments(mk(100, 0, "aa"), mk(80, 1, "bb"), &out); bad != 2 {
		t.Errorf("a regression and a new failure: %d bad rows, want 2\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "DIFFERENT") || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("comparison does not report the digest change and the regression:\n%s", out.String())
	}
}

// A child process that dies is an error for its workload, not for the
// suite. The test binary stands in for a broken benchmark binary: it
// rejects the benchmark's flags and exits non-zero.
func TestFailedChildIsAnError(t *testing.T) {
	rd, err := runChild("bulk-dumbbell", 42, 1, 0)
	if err == nil {
		t.Fatalf("a child that exited non-zero returned %+v and no error", rd)
	}
	if !strings.Contains(err.Error(), "exit status") {
		t.Errorf("error %q does not carry the child's exit status", err)
	}
}
