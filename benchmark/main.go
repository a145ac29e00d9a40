// Command benchmark is the repository's benchmark: five workloads built
// from the simulator's public packages, seven end-to-end metrics measured
// with nothing attached, and a per-layer cost budget taken by a separate
// repetition that is timed from outside. BENCHMARK.json at the repository
// root declares the workloads and metrics; README.md in this directory
// says how they interact.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1   one run; result JSON is the last stdout line
//	benchmark [--seed N] [--seconds S] [-out FILE]                every workload, both halves, one child process each
//	benchmark -compare A.json B.json                              compare two documents written with -out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// document is what -out writes: the runs of one invocation, by workload.
type document struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`

	Workloads map[string]*workloadDoc `json:"workloads"`
}

// workloadDoc holds the two halves of one workload: the end-to-end run
// (--trace 0) and the per-layer run (--trace 1).
type workloadDoc struct {
	EndToEnd *runDoc `json:"end_to_end,omitempty"`
	PerLayer *runDoc `json:"per_layer,omitempty"`
}

// maxProcs is the benchmark's GOMAXPROCS: the city's four shards get a
// core each where the machine has them, and nothing more is ever used.
func maxProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func newDocument(seed int64, seconds float64) *document {
	return &document{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: maxProcs(),
		Seed:       seed,
		Seconds:    seconds,
		Workloads:  map[string]*workloadDoc{},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (one child process per workload and half)")
	seed := fs.Int64("seed", 42, "seed of every generated input")
	seconds := fs.Float64("seconds", 8, "how long the timed repetitions of a run go on")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, nothing attached; 1: per-layer metrics from a traced repetition")
	out := fs.String("out", "", "write the full JSON document to this file")
	compare := fs.Bool("compare", false, "compare two documents: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two documents")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(maxProcs())

	doc := newDocument(*seed, *seconds)
	var single *runDoc
	if *name == "all" {
		runSuite(doc, stderr)
		printTable(stderr, doc)
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		rd := measure(w, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1})
		wd := &workloadDoc{}
		if *trace == 1 {
			wd.PerLayer = &rd
		} else {
			wd.EndToEnd = &rd
		}
		doc.Workloads[w.name] = wd
		printTable(stderr, doc)
		single = &rd
	}
	var err error
	if *out != "" {
		err = writeDocument(*out, doc)
	} else if *name == "all" {
		err = encodeDocument(stdout, doc)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if single != nil {
		printResult(stdout, single)
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func encodeDocument(w io.Writer, doc *document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func writeDocument(path string, doc *document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeDocument(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// printResult writes the one-line result a driver reads: the verdict and
// every metric of the half that ran, as measured.
func printResult(w io.Writer, rd *runDoc) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rd.Correct, rd.OpsAttempted, rd.OpsFailed, map[string]value{}}
	for name, s := range rd.Metrics {
		res.Metrics[name] = value{s.Median, s.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// printTable writes the human-readable form of a document.
func printTable(w io.Writer, doc *document) {
	fmt.Fprintf(w, "%s, %d CPU, GOMAXPROCS %d, seed %d, %gs timed per run\n",
		doc.GoVersion, doc.NumCPU, doc.GOMAXPROCS, doc.Seed, doc.Seconds)
	for _, def := range workloads {
		if wd := doc.Workloads[def.name]; wd != nil {
			printHalf(w, def.name, "end to end", endToEnd, wd.EndToEnd)
			printHalf(w, def.name, "per layer", perLayer, wd.PerLayer)
		}
	}
}

func printHalf(w io.Writer, name, half string, defs []metricDef, rd *runDoc) {
	if rd == nil {
		return
	}
	verdict := "correct"
	if !rd.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "\n%s, %s: %s, %d/%d operations failed, %d timed repetitions, %d events, digest %.16s\n",
		name, half, verdict, rd.OpsFailed, rd.OpsAttempted, rd.TimedReps, rd.Events, rd.StateDigest)
	for _, f := range rd.Failures {
		fmt.Fprintf(w, "  ! %s\n", f)
	}
	fmt.Fprintf(w, "  %-30s %-13s %14s %14s %14s %4s\n", "metric", "unit", "median", "min", "max", "n")
	for _, d := range defs {
		s, ok := rd.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %-13s %14.6g %14.6g %14.6g %4d\n", d.name, s.Unit, s.Median, s.Min, s.Max, s.N)
	}
	if len(rd.Variants) > 0 {
		variants := make([]string, 0, len(rd.Variants))
		for v := range rd.Variants {
			variants = append(variants, v)
		}
		sort.Strings(variants)
		for _, v := range variants {
			vd := rd.Variants[v]
			fmt.Fprintf(w, "  sender %-10s %9d acks %8.1f ns/ack self, %5.1f%% of traced wall\n", v, vd.Acks, vd.NsPerAck, 100*vd.BusyShare)
		}
	}
}
