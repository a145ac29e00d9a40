// Command tcptrace runs one flow through a chosen scenario, dumps its
// packet-level event trace in an ns-2-like TSV format, and summarizes the
// reordering the flow experienced — useful both for debugging sender
// behaviour and for quantifying how much reordering a given ε or jitter
// setting actually produces.
//
//	tcptrace -protocol TCP-PR -scenario multipath -eps 0 -duration 10s -out trace.tsv
//	tcptrace -protocol TCP-SACK -scenario jitter -duration 10s
//
// Two converter modes operate on files instead of running a simulation:
//
//	tcptrace -perfetto results/golden/TCP-PR.tsv -out pr.trace.json
//	    converts an endpoint trace TSV (-out or golden format) into
//	    Chrome trace-event JSON loadable at ui.perfetto.dev
//	tcptrace -validate run.trace.json
//	    checks a Chrome trace for well-formedness (monotone timestamps,
//	    matched span pairs) and exits nonzero on failure
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/span"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/trace"
	"tcppr/internal/workload"
)

func main() {
	protocol := flag.String("protocol", "TCP-PR", "sender variant (see tcpsim for the list)")
	scenario := flag.String("scenario", "multipath", "multipath|dumbbell|jitter")
	eps := flag.Float64("eps", 0, "multipath epsilon")
	delay := flag.Duration("delay", 10*time.Millisecond, "per-link delay (multipath)")
	jitter := flag.Duration("jitter", 30*time.Millisecond, "bottleneck jitter (jitter scenario)")
	duration := flag.Duration("duration", 10*time.Second, "simulated duration")
	out := flag.String("out", "", "write the full event trace TSV to this file")
	seed := flag.Int64("seed", 42, "random seed")
	perfetto := flag.String("perfetto", "", "convert this endpoint trace TSV to Chrome trace JSON (-out or stdout) and exit")
	validate := flag.String("validate", "", "validate this Chrome trace JSON file and exit")
	flag.Parse()

	if *validate != "" {
		runValidate(*validate)
		return
	}
	if *perfetto != "" {
		runPerfetto(*perfetto, *out)
		return
	}

	if !workload.Known(*protocol) {
		fmt.Fprintf(os.Stderr, "tcptrace: unknown protocol %q (known: %s)\n",
			*protocol, strings.Join(workload.AllProtocols(), ", "))
		os.Exit(1)
	}

	sched := sim.NewScheduler()
	var flow *tcp.Flow

	switch *scenario {
	case "multipath":
		m := topo.NewMultipath(sched, 3, *delay)
		fwd := routing.NewEpsilon(m.FwdPaths, *eps, sim.NewRand(sim.SplitSeed(*seed, 1)))
		rev := routing.NewEpsilon(m.RevPaths, *eps, sim.NewRand(sim.SplitSeed(*seed, 2)))
		flow = tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	case "dumbbell":
		d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
		flow = tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
			routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	case "jitter":
		d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
		d.Bottleneck.SetImpairment(netem.NewJitter(*jitter, sim.NewRand(sim.SplitSeed(*seed, 3))))
		flow = tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
			routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	default:
		fmt.Fprintf(os.Stderr, "tcptrace: unknown scenario %q\n", *scenario)
		os.Exit(1)
	}

	rec := trace.NewRecorder()
	rec.Attach(flow)
	wf := workload.NewFlow(flow, *protocol, workload.PRParams{}, 0)
	sched.RunUntil(*duration)

	goodput := stats.Mbps(stats.Throughput(wf.UniqueBytes(), *duration))
	mn, md, mx := rec.ReorderExtents()
	fmt.Printf("protocol:        %s\n", *protocol)
	fmt.Printf("scenario:        %s\n", *scenario)
	fmt.Printf("duration:        %v (simulated)\n", *duration)
	fmt.Printf("goodput:         %.2f Mbps\n", goodput)
	fmt.Printf("data sent:       %d (%d retransmissions)\n", flow.DataSent(), flow.DataRetx())
	fmt.Printf("acks sent:       %d\n", flow.AcksSent())
	fmt.Printf("reorder rate:    %.2f%% of arrivals\n", 100*rec.ReorderRate())
	fmt.Printf("reorder extent:  min %d / median %d / max %d packets\n", mn, md, mx)
	fmt.Printf("trace events:    %d\n", len(rec.Events))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcptrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rec.WriteTSV(f); err != nil {
			fmt.Fprintln(os.Stderr, "tcptrace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written:   %s\n", *out)
	}
}

// runPerfetto converts an endpoint trace TSV into Chrome trace-event JSON.
func runPerfetto(in, out string) {
	f, err := os.Open(in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w := os.Stdout
	if out != "" {
		w, err = os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer w.Close()
	}
	name := strings.TrimSuffix(filepath.Base(in), filepath.Ext(in))
	if err := span.ConvertEndpointTSV(f, w, name); err != nil {
		fatal(err)
	}
	if out != "" {
		fmt.Printf("converted %s -> %s (load at ui.perfetto.dev)\n", in, out)
	}
}

// runValidate checks a Chrome trace file and exits nonzero on failure.
func runValidate(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	n, err := span.ValidateChromeTrace(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	fmt.Printf("%s: ok (%d events)\n", path, n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcptrace:", err)
	os.Exit(1)
}
