package span

import (
	"encoding/json"
	"fmt"
	"io"
)

// Cap returns the ring capacity.
func (c *Collector) Cap() int { return len(c.ring) }

// ExtractEndpointTSV reads a Chrome trace produced by ConvertEndpointTSV
// and reconstructs the original TSV lines (no comments) from the instant
// events' args — the round-trip proof that the conversion loses nothing.
func ExtractEndpointTSV(r io.Reader, w io.Writer) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var wrapper struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &wrapper); err != nil {
		return err
	}
	for _, e := range wrapper.TraceEvents {
		if e.Ph != "i" || e.Cat != "endpoint" {
			continue
		}
		t, _ := e.Args["t"].(string)
		kind, _ := e.Args["kind"].(string)
		seq, sok := e.Args["seq"].(float64)
		cum, cok := e.Args["cum"].(float64)
		retx, rok := e.Args["retx"].(float64)
		if t == "" || kind == "" || !sok || !cok || !rok {
			return fmt.Errorf("span: instant %q lacks round-trip args", e.Name)
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n",
			t, kind, int64(seq), int64(cum), int64(retx)); err != nil {
			return err
		}
	}
	return nil
}

// Collector returns the wrapped collector.
func (fr *FlightRecorder) Collector() *Collector { return fr.c }

// DumpOnPanic is a defer helper: if the caller is panicking it writes a
// forced dump (ignoring MaxDumps) and re-panics.
func (fr *FlightRecorder) DumpOnPanic() {
	if r := recover(); r != nil {
		fr.Dump(fmt.Sprintf("panic: %v", r))
		panic(r)
	}
}
