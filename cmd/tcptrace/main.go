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
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse and validate args, convert, validate or
// simulate, and return the exit status (0 ok, 1 the run failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcptrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	protocol := fs.String("protocol", "TCP-PR", "sender variant (see tcpsim for the list)")
	scenario := fs.String("scenario", "multipath", "multipath|dumbbell|jitter")
	eps := fs.Float64("eps", 0, "multipath epsilon")
	delay := fs.Duration("delay", 10*time.Millisecond, "per-link delay (multipath)")
	jitter := fs.Duration("jitter", 30*time.Millisecond, "bottleneck jitter (jitter scenario)")
	duration := fs.Duration("duration", 10*time.Second, "simulated duration")
	out := fs.String("out", "", "write the full event trace TSV to this file")
	seed := fs.Int64("seed", 42, "random seed")
	perfetto := fs.String("perfetto", "", "convert this endpoint trace TSV to Chrome trace JSON (-out or stdout) and exit")
	validate := fs.String("validate", "", "validate this Chrome trace JSON file and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var err error
	switch {
	case *validate != "":
		err = runValidate(*validate, stdout)
	case *perfetto != "":
		err = runPerfetto(*perfetto, *out, stdout)
	default:
		// Reject a bad invocation here, before anything is built: the
		// topology and impairment constructors panic on these values.
		bad := 0
		for _, c := range []struct {
			bad bool
			msg string
		}{
			{!workload.Known(*protocol), fmt.Sprintf("unknown protocol %q (known: %s)", *protocol, strings.Join(workload.AllProtocols(), ", "))},
			{*scenario != "multipath" && *scenario != "dumbbell" && *scenario != "jitter", fmt.Sprintf("unknown scenario %q (multipath|dumbbell|jitter)", *scenario)},
			{*eps < 0, fmt.Sprintf("-eps cannot be negative, got %g", *eps)},
			{*delay <= 0, fmt.Sprintf("-delay must be positive, got %v", *delay)},
			{*jitter < 0, fmt.Sprintf("-jitter cannot be negative, got %v", *jitter)},
			{*duration <= 0, fmt.Sprintf("-duration must be positive, got %v", *duration)},
		} {
			if c.bad {
				fmt.Fprintln(stderr, "tcptrace:", c.msg)
				bad++
			}
		}
		if bad > 0 {
			return 2
		}
		err = simulate(stdout, *protocol, *scenario, *eps, *delay, *jitter, *duration, *seed, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tcptrace:", err)
		return 1
	}
	return 0
}

// simulate runs one flow through the scenario, prints its summary and,
// with out set, writes the event trace TSV there.
func simulate(stdout io.Writer, protocol, scenario string, eps float64, delay, jitter, duration time.Duration, seed int64, out string) error {
	sched := sim.NewScheduler()
	var flow *tcp.Flow
	switch scenario {
	case "multipath":
		m := topo.NewMultipath(sched, 3, delay)
		fwd := routing.NewEpsilon(m.FwdPaths, eps, sim.NewRand(sim.SplitSeed(seed, 1)))
		rev := routing.NewEpsilon(m.RevPaths, eps, sim.NewRand(sim.SplitSeed(seed, 2)))
		flow = tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	case "dumbbell", "jitter":
		d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
		if scenario == "jitter" {
			d.Bottleneck.SetImpairment(netem.NewJitter(jitter, sim.NewRand(sim.SplitSeed(seed, 3))))
		}
		flow = tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
			routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	}

	rec := trace.NewRecorder()
	rec.Attach(flow)
	wf := workload.NewFlow(flow, protocol, workload.PRParams{}, 0)
	sched.RunUntil(duration)

	goodput := stats.Mbps(stats.Throughput(wf.UniqueBytes(), duration))
	mn, md, mx := rec.ReorderExtents()
	fmt.Fprintf(stdout, "protocol:        %s\n", protocol)
	fmt.Fprintf(stdout, "scenario:        %s\n", scenario)
	fmt.Fprintf(stdout, "duration:        %v (simulated)\n", duration)
	fmt.Fprintf(stdout, "goodput:         %.2f Mbps\n", goodput)
	fmt.Fprintf(stdout, "data sent:       %d (%d retransmissions)\n", flow.DataSent(), flow.DataRetx())
	fmt.Fprintf(stdout, "acks sent:       %d\n", flow.AcksSent())
	fmt.Fprintf(stdout, "reorder rate:    %.2f%% of arrivals\n", 100*rec.ReorderRate())
	fmt.Fprintf(stdout, "reorder extent:  min %d / median %d / max %d packets\n", mn, md, mx)
	fmt.Fprintf(stdout, "trace events:    %d\n", len(rec.Events))
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := errors.Join(rec.WriteTSV(f), f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace written:   %s\n", out)
	return nil
}

// runPerfetto converts an endpoint trace TSV into Chrome trace-event JSON.
func runPerfetto(in, out string, stdout io.Writer) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(in), filepath.Ext(in))
	if out == "" {
		return span.ConvertEndpointTSV(f, stdout, name)
	}
	o, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := errors.Join(span.ConvertEndpointTSV(f, o, name), o.Close()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %s -> %s (load at ui.perfetto.dev)\n", in, out)
	return nil
}

// runValidate checks a Chrome trace file; an error makes the exit nonzero.
func runValidate(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := span.ValidateChromeTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(stdout, "%s: ok (%d events)\n", path, n)
	return nil
}
