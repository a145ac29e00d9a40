package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runSuite runs every workload in a child process of its own, one at a
// time, first the end-to-end half and then the per-layer half, so that
// peak RSS is per workload and one workload's heap is not another's GC
// bill. A child that fails or panics marks its workload's operations
// failed; the others still run.
func runSuite(doc *document, stderr io.Writer) {
	for _, w := range workloads {
		wd := &workloadDoc{}
		doc.Workloads[w.name] = wd
		for trace := 0; trace <= 1; trace++ {
			fmt.Fprintf(stderr, "running %s --trace %d\n", w.name, trace)
			rd, err := runChild(w.name, doc.Seed, doc.Seconds, trace)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s --trace %d: %v\n", w.name, trace, err)
				rd = &runDoc{OpsAttempted: 1, OpsFailed: 1, Failures: []string{"child process: " + err.Error()}, Metrics: metricSet{}}
			}
			if trace == 1 {
				wd.PerLayer = rd
			} else {
				wd.EndToEnd = rd
			}
		}
		// The two halves are separate processes on the same seed: they
		// too must have simulated the same thing.
		if e, l := wd.EndToEnd, wd.PerLayer; e.StateDigest != "" && l.StateDigest != "" && (e.StateDigest != l.StateDigest || e.Events != l.Events) {
			l.Failures = append(l.Failures, fmt.Sprintf("simulated another state than the end-to-end run: digest %.12s events %d against %.12s events %d",
				l.StateDigest, l.Events, e.StateDigest, e.Events))
			l.Correct, l.OpsFailed = false, l.OpsAttempted
		}
	}
}

// runChild re-executes this program for one run of one workload and reads
// the document it writes to an inherited pipe.
func runChild(name string, seed int64, seconds float64, trace int) (*runDoc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	cmd := exec.Command(self,
		"--workload", name,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"-out", "/dev/fd/3")
	cmd.ExtraFiles = []*os.File{w}
	// The parent prints the merged table; of the child's own only the end
	// matters, and only when it dies.
	var childErr bytes.Buffer
	cmd.Stderr = &childErr
	if err := cmd.Start(); err != nil {
		w.Close()
		return nil, err
	}
	w.Close()
	var child document
	decodeErr := json.NewDecoder(r).Decode(&child)
	if err := cmd.Wait(); err != nil {
		tail := childErr.Bytes()
		if len(tail) > 600 {
			tail = tail[len(tail)-600:]
		}
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(tail))
	}
	if decodeErr != nil {
		return nil, fmt.Errorf("reading the child's document: %w", decodeErr)
	}
	wd := child.Workloads[name]
	if wd == nil {
		return nil, fmt.Errorf("the child's document has no workload %s", name)
	}
	if trace == 1 {
		return wd.PerLayer, nil
	}
	return wd.EndToEnd, nil
}
