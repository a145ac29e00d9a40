package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// EndpointEvent is one line of an endpoint trace TSV — the format
// internal/trace.Recorder.WriteTSV produces and results/golden/<variant>.tsv
// stores: "time kind seq cum retx", kinds s (data sent), r (data received),
// a (ACK sent), k (ACK received).
type EndpointEvent struct {
	// T is the event time in seconds, kept as the original string so a
	// round trip through JSON reproduces the TSV byte-for-byte.
	T    string
	Kind byte
	Seq  int64
	Cum  int64
	Retx int64
}

// ParseEndpointTSV reads an endpoint trace TSV, skipping '#' comments and
// blank lines.
func ParseEndpointTSV(r io.Reader) ([]EndpointEvent, error) {
	var out []EndpointEvent
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 5 || len(f[1]) != 1 {
			return nil, fmt.Errorf("span: endpoint TSV line %d: want 5 fields time\\tkind\\tseq\\tcum\\tretx, got %q", line, text)
		}
		if _, err := strconv.ParseFloat(f[0], 64); err != nil {
			return nil, fmt.Errorf("span: endpoint TSV line %d: bad time %q", line, f[0])
		}
		e := EndpointEvent{T: f[0], Kind: f[1][0]}
		var err error
		if e.Seq, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return nil, fmt.Errorf("span: endpoint TSV line %d: bad seq %q", line, f[2])
		}
		if e.Cum, err = strconv.ParseInt(f[3], 10, 64); err != nil {
			return nil, fmt.Errorf("span: endpoint TSV line %d: bad cum %q", line, f[3])
		}
		if e.Retx, err = strconv.ParseInt(f[4], 10, 64); err != nil {
			return nil, fmt.Errorf("span: endpoint TSV line %d: bad retx %q", line, f[4])
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// endpointKindName maps an endpoint event kind to its instant name.
func endpointKindName(k byte) string {
	switch k {
	case 's':
		return "data-sent"
	case 'r':
		return "data-received"
	case 'a':
		return "ack-sent"
	case 'k':
		return "ack-received"
	}
	return "event-" + string(k)
}

// ConvertEndpointTSV converts an endpoint trace TSV (a golden trace) into
// Chrome trace-event JSON: instants on a sender and a receiver track plus
// a cumulative-ACK counter, with the original line fields preserved in
// args so the conversion round-trips (see FormatEndpointTSV).
func ConvertEndpointTSV(r io.Reader, w io.Writer, name string) error {
	events, err := ParseEndpointTSV(r)
	if err != nil {
		return err
	}
	const pid = 1
	out := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": "endpoint trace " + name}},
		{Name: "thread_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": "sender"}},
		{Name: "thread_name", Ph: "M", Pid: pid, Tid: 2,
			Args: map[string]any{"name": "receiver"}},
	}
	for _, e := range events {
		t, _ := strconv.ParseFloat(e.T, 64)
		tid := 1 // s, k happen at the sender
		if e.Kind == 'r' || e.Kind == 'a' {
			tid = 2
		}
		out = append(out, chromeEvent{
			Name: endpointKindName(e.Kind), Cat: "endpoint", Ph: "i", S: "t",
			Ts: t * 1e6, Pid: pid, Tid: tid,
			Args: map[string]any{
				"t": e.T, "kind": string(e.Kind), "seq": e.Seq, "cum": e.Cum, "retx": e.Retx,
			},
		})
		if e.Kind == 'a' || e.Kind == 'k' {
			out = append(out, chromeEvent{
				Name: "cum-ack", Ph: "C", Ts: t * 1e6, Pid: pid, Tid: tid,
				Args: map[string]any{"cum": e.Cum},
			})
		}
	}
	sortChromeEvents(out)
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}
