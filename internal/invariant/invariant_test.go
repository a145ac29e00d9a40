package invariant

import (
	"testing"
	"time"

	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// runDumbbell runs one flow per protocol over a congested dumbbell with
// the checker attached, and returns the checker after Finish.
func runDumbbell(t *testing.T, protocols []string, dur time.Duration) *Checker {
	t.Helper()
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: len(protocols), BottleneckBW: topo.Mbps(6)})
	c := New(sched)
	c.AttachNetwork(d.Net)
	starts := workload.StaggeredStarts(len(protocols), 0, 2*time.Second)
	pr := workload.PRParams{Alpha: 0.995, Beta: 3}
	for i, proto := range protocols {
		f := tcp.NewFlow(d.Net, i+1, d.Src(i), d.Dst(i),
			routing.Static{Path: d.FwdPath(i)}, routing.Static{Path: d.RevPath(i)})
		workload.NewFlow(f, proto, pr, starts[i])
		c.AttachFlow(f, proto)
	}
	sched.RunUntil(sim.Time(dur))
	c.Finish()
	return c
}

// TestCleanDumbbellAllProtocols: every registered variant competing on one
// congested bottleneck (drops, fast retransmit, timeouts) must produce
// zero violations.
func TestCleanDumbbellAllProtocols(t *testing.T) {
	c := runDumbbell(t, workload.AllProtocols(), 25*time.Second)
	if c.Total() != 0 {
		t.Fatalf("clean run reported violations: %v", c.Err())
	}
}

// TestCheckerAttachesEveryVariant: every registered protocol must get
// either the TCP-PR rules or the RFC-family rules. A sender type that
// drifts off the probe surface would otherwise pass every clean run with
// its per-variant rules silently off.
func TestCheckerAttachesEveryVariant(t *testing.T) {
	for _, proto := range workload.AllProtocols() {
		sched := sim.NewScheduler()
		d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
		c := New(sched)
		f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
			routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
		workload.NewFlow(f, proto, workload.PRParams{}, 0)
		c.AttachFlow(f, proto)
		if fs := c.flows[f.ID]; fs.pr == nil && fs.rfc == nil {
			t.Errorf("%s: sender %T gets neither the TCP-PR nor the RFC-family rules", proto, f.Sender())
		}
	}
}

// TestCleanMultipathReordering: TCP-PR and TCP-SACK under ε=0 multipath —
// persistent reordering is the paper's core scenario and the hardest case
// for the retransmission-discipline rules.
func TestCleanMultipathReordering(t *testing.T) {
	for _, proto := range []string{workload.TCPPR, workload.TCPSACK, workload.NewReno} {
		t.Run(proto, func(t *testing.T) {
			sched := sim.NewScheduler()
			m := topo.NewMultipath(sched, 3, 10*time.Millisecond)
			c := New(sched)
			c.AttachNetwork(m.Net)
			f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst,
				routing.NewEpsilon(m.FwdPaths, 0, sim.NewRand(1)),
				routing.NewEpsilon(m.RevPaths, 0, sim.NewRand(2)))
			workload.NewFlow(f, proto, workload.PRParams{Alpha: 0.995, Beta: 3}, 0)
			c.AttachFlow(f, proto)
			sched.RunUntil(sim.Time(20 * time.Second))
			c.Finish()
			if c.Total() != 0 {
				t.Fatalf("clean multipath run reported violations: %v", c.Err())
			}
		})
	}
}

// brokenSender violates the generic send discipline on purpose: every
// transmission reuses TxSeq 7, and the last one carries a stale stamp.
type brokenSender struct{ env tcp.SenderEnv }

func (b *brokenSender) Start() {
	now := b.env.Now()
	b.env.Transmit(tcp.Seg{Seq: 1, TxSeq: 7, Stamp: now})
	b.env.Transmit(tcp.Seg{Seq: 2, TxSeq: 7, Stamp: now})
	b.env.Transmit(tcp.Seg{Seq: 3, TxSeq: 7, Stamp: now - sim.Time(time.Millisecond)})
}

func (b *brokenSender) OnAck(tcp.Ack) {}

func brokenScenario() (*sim.Scheduler, *Checker) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	c := New(sched)
	c.AttachNetwork(d.Net)
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	f.Attach(func(env tcp.SenderEnv) tcp.Sender { return &brokenSender{env: env} })
	f.Start(0)
	c.AttachFlow(f, "Broken")
	return sched, c
}

// TestBrokenSenderDetected: a deliberately non-conformant sender must be
// caught, with the rule names identifying what it did wrong.
func TestBrokenSenderDetected(t *testing.T) {
	sched, c := brokenScenario()
	sched.RunUntil(sim.Time(time.Second))
	c.Finish()
	if c.Total() == 0 {
		t.Fatal("broken sender produced no violations")
	}
	rules := make(map[string]int)
	for _, v := range c.Violations() {
		rules[v.Rule]++
	}
	if rules["txseq-monotone"] < 2 {
		t.Errorf("want >=2 txseq-monotone violations, got %d (%v)", rules["txseq-monotone"], c.Violations())
	}
	if rules["stamp"] != 1 {
		t.Errorf("want 1 stamp violation, got %d (%v)", rules["stamp"], c.Violations())
	}
	if c.Err() == nil {
		t.Error("Err() = nil with recorded violations")
	}
}

// TestViolationsMirroredToMetrics: with a registry attached, every
// violation shows up under invariant.violations and its per-rule counter.
func TestViolationsMirroredToMetrics(t *testing.T) {
	sched, c := brokenScenario()
	reg := metrics.New()
	c.SetMetrics(reg)
	sched.RunUntil(sim.Time(time.Second))
	c.Finish()
	if got, want := reg.Counter("invariant.violations").Value(), uint64(c.Total()); got != want {
		t.Errorf("invariant.violations = %d, want %d", got, want)
	}
	if reg.Counter("invariant.violations.txseq-monotone").Value() == 0 {
		t.Error("per-rule counter invariant.violations.txseq-monotone not incremented")
	}
}

// TestConservationCatchesPhantomDrop: a drop reported for a packet the
// flow never sent must trip the conservation ledger.
func TestConservationCatchesPhantomDrop(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	c := New(sched)
	c.AttachNetwork(d.Net)
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	f.Attach(workload.Factory(workload.TCPSACK, workload.PRParams{}))
	c.AttachFlow(f, workload.TCPSACK)

	// Simulate a bookkeeping bug: the bottleneck reports a terminal drop
	// of a data packet this flow never transmitted.
	linkObserver{c}.PacketDropped(d.Bottleneck, &netem.Packet{Flow: 1, Payload: &tcp.Seg{Seq: 42}}, netem.DropQueueFull)
	if c.Total() == 0 {
		t.Fatal("phantom drop not detected")
	}
	if c.Violations()[0].Rule != "conserve-data" {
		t.Errorf("rule = %q, want conserve-data", c.Violations()[0].Rule)
	}
}

// TestMaxRecordCapsStorage: the recording cap bounds memory, not the
// total count.
func TestMaxRecordCapsStorage(t *testing.T) {
	sched, c := brokenScenario()
	c.SetMaxRecord(1)
	sched.RunUntil(sim.Time(time.Second))
	c.Finish()
	if c.Total() < 2 {
		t.Fatalf("expected several violations, got %d", c.Total())
	}
	if len(c.Violations()) != 1 {
		t.Errorf("recorded %d violations, cap was 1", len(c.Violations()))
	}
}

// TestCleanAbortUnderHostDeath drives every sender engine family into an
// R2 abort by killing the peer host mid-transfer, with the checker
// attached: the abort rules (silence after abort, R2 threshold respected,
// sender fully quiescent) must all hold, and the run must stay
// violation-free — an abort is conformant behavior, not an error.
func TestCleanAbortUnderHostDeath(t *testing.T) {
	for _, proto := range []string{workload.TCPPR, workload.TCPSACK, workload.NewReno, workload.TDFR} {
		t.Run(proto, func(t *testing.T) {
			sched := sim.NewScheduler()
			d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
			c := New(sched)
			c.AttachNetwork(d.Net)
			f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
				routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
			f.AbortPolicy = tcp.AbortConfig{R1: 2, R2: 4}
			workload.NewFlow(f, proto, workload.PRParams{Alpha: 0.995, Beta: 3}, 0)
			c.AttachFlow(f, proto)
			sched.At(sim.Time(200*time.Millisecond), func() { d.Dst(0).SetDown(true) })

			sched.RunUntil(sim.Time(5 * time.Minute))
			c.Finish()
			if !f.Aborted() {
				t.Fatal("flow never aborted against a dead peer")
			}
			if got := f.AbortCause(); got != tcp.AbortR2 {
				t.Errorf("abort cause = %s, want r2-retx", got)
			}
			if c.Total() != 0 {
				t.Fatalf("abort run reported violations: %v", c.Err())
			}
			if n := sched.Len(); n != 0 {
				t.Errorf("%d events still pending after abort: leaked timers", n)
			}
		})
	}
}

// TestAbortRulesCatchMisbehavior force-feeds the checker a hand-rolled
// abort protocol breach: transmitting after Flow.Abort must trip
// abort-silence, and aborting below the R2 budget must trip abort-r2.
func TestAbortRulesCatchMisbehavior(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	c := New(sched)
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	f.AbortPolicy = tcp.AbortConfig{R2: 5}
	workload.NewFlow(f, workload.TCPSACK, workload.PRParams{}, 0)
	c.AttachFlow(f, workload.TCPSACK)

	sched.RunUntil(sim.Time(50 * time.Millisecond))
	// Abort externally: zero consecutive timeouts is fine for an external
	// abort (only R2 aborts must meet the budget)...
	f.Abort(tcp.AbortExternal)
	// ...but the transmit seam must now refuse and report.
	env := f.Env()
	env.Transmit(tcp.Seg{Seq: 999, Stamp: sched.Now()})
	found := map[string]bool{}
	for _, v := range c.Violations() {
		found[v.Rule] = true
	}
	if !found["abort-silence"] {
		t.Errorf("transmit after abort not flagged; got %v", c.Violations())
	}
}

// TestCleanUnderReorderModels: every canned reordering source — holding,
// batching, striping — must pass the full rule set, including the new
// custody-ledger audit: reordering delays packets but never creates or
// destroys them.
func TestCleanUnderReorderModels(t *testing.T) {
	for _, name := range netem.ReorderScenarioNames() {
		if name == "none" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			sc, err := netem.ReorderScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sched := sim.NewScheduler()
			d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
			d.Bottleneck.SetReorderModel(sc.New(sim.NewRand(42)))
			c := New(sched)
			c.AttachNetwork(d.Net)
			f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
				routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
			workload.NewFlow(f, workload.TCPPR, workload.PRParams{Alpha: 0.995, Beta: 3}, 0)
			c.AttachFlow(f, workload.TCPPR)
			sched.RunUntil(sim.Time(15 * time.Second))
			c.Finish()
			if c.Total() != 0 {
				t.Fatalf("reorder model %s tripped invariants: %v", name, c.Err())
			}
			st := d.Bottleneck.Stats()
			if name != "stripe" && st.ReorderHeld == 0 {
				t.Fatalf("model %s never took custody; test is vacuous", name)
			}
		})
	}
}

// TestReorderLedgerCatchesOverRelease: a model that releases a packet it
// does not hold must die loudly at the link layer (defense in depth below
// the ledger rule).
func TestReorderLedgerCatchesOverRelease(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	d.Bottleneck.Release(&netem.Packet{}, 0)
	_ = sched
}

// TestCleanUnderRepairMiddlebox: a repair box behind each reordering
// source — both well-provisioned and cap-starved — must pass the full
// rule set, including the repair-ledger custody audit, once the box is
// flushed at the horizon.
func TestCleanUnderRepairMiddlebox(t *testing.T) {
	for _, repairName := range []string{"repair", "repair-tight"} {
		for _, reorderName := range []string{"swap-high", "coalesce"} {
			t.Run(repairName+"/"+reorderName, func(t *testing.T) {
				rp, err := netem.RepairScenarioByName(repairName)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := netem.ReorderScenarioByName(reorderName)
				if err != nil {
					t.Fatal(err)
				}
				sched := sim.NewScheduler()
				d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
				d.Bottleneck.SetReorderModel(rc.New(sim.NewRand(42)))
				box := rp.New()
				d.Bottleneck.SetRepair(box)
				c := New(sched)
				c.AttachNetwork(d.Net)
				f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
					routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
				workload.NewFlow(f, workload.NewReno, workload.PRParams{}, 0)
				c.AttachFlow(f, workload.NewReno)
				sched.RunUntil(sim.Time(15 * time.Second))
				box.Flush()
				c.Finish()
				if c.Total() != 0 {
					t.Fatalf("repaired run tripped invariants: %v", c.Err())
				}
				st := d.Bottleneck.Stats()
				if st.RepairHeld == 0 {
					t.Fatalf("box never took custody under %s; test is vacuous", reorderName)
				}
				if bs := box.Stats(); repairName == "repair-tight" &&
					bs.OverflowForwarded == 0 && bs.OverflowDropped == 0 && bs.TimedOut == 0 {
					t.Error("cap-starved box never felt pressure; test is vacuous")
				}
			})
		}
	}
}

// TestRepairLedgerCatchesMissingFlush: packets stranded in middlebox
// custody at Finish must trip the end-of-run half of the repair-ledger
// rule.
func TestRepairLedgerCatchesMissingFlush(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	box := netem.NewRepairBox(netem.RepairConfig{HoldTimeout: time.Hour})
	d.Bottleneck.SetRepair(box)
	c := New(sched)
	c.AttachNetwork(d.Net)
	d.Bottleneck.To.Handle(99, func(*netem.Packet) {})
	for i, seq := range []int64{0, 2} { // the gap at seq 1 never fills
		seq := seq
		sched.At(sim.Time(i)*sim.Time(2*time.Millisecond), func() {
			p := d.Net.NewPacket()
			p.Flow, p.Size = 99, 1000
			p.Path = []*netem.Link{d.Bottleneck}
			p.Payload = &tcp.Seg{Seq: seq}
			d.Net.Send(p)
		})
	}
	sched.RunUntil(sim.Time(500 * time.Millisecond))
	if got := d.Bottleneck.RepairHeldNow(); got != 1 {
		t.Fatalf("held %d at horizon, want 1 (is the test reaching the box?)", got)
	}
	c.Finish() // deliberately no box.Flush()
	if c.Total() == 0 {
		t.Fatal("stranded custody not detected")
	}
	found := false
	for _, v := range c.Violations() {
		if v.Rule == "repair-ledger" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no repair-ledger violation in %v", c.Violations())
	}
}

// TestShapesCleanUnderReorderModels is the traffic × model crossing: the
// on/off source, the short-transfer workload of the city and the churn
// matrix, must compose with every canned reordering source without
// tripping the custody or conservation ledgers.
func TestShapesCleanUnderReorderModels(t *testing.T) {
	for _, model := range netem.ReorderScenarioNames() {
		if model == "none" {
			continue
		}
		t.Run("onoff/"+model, func(t *testing.T) {
			sc, err := netem.ReorderScenarioByName(model)
			if err != nil {
				t.Fatal(err)
			}
			sched := sim.NewScheduler()
			d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
			d.Bottleneck.SetReorderModel(sc.New(sim.NewRand(7)))
			c := New(sched)
			c.AttachNetwork(d.Net)
			src := workload.NewOnOffSource(d.Net, 50_000, d.Src(0), d.Dst(0),
				routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)},
				workload.OnOffConfig{
					MeanSizePkts: 10, MeanThink: 100 * time.Millisecond,
					OnFlow: func(f *tcp.Flow, proto string) { c.AttachFlow(f, proto) },
				}, sim.NewRand(21))
			src.Start(0)
			sched.RunUntil(sim.Time(12 * time.Second))
			c.Finish()
			if c.Total() != 0 {
				t.Fatalf("onoff under %s tripped invariants: %v", model, c.Err())
			}
			if src.BytesDelivered == 0 {
				t.Fatalf("onoff delivered nothing under %s; test is vacuous", model)
			}
		})
	}
}
