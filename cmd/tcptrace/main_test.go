package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInvocations: a flag value the topology or impairment constructors
// would panic on dies up front — exit status 2, one "tcptrace:" line per
// problem, nothing written — while a valid run prints its summary and
// writes its trace.
func TestInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // all of stderr for a rejection, the start of stdout for a run
	}{
		{"negative eps", []string{"-eps", "-1"}, 2, "tcptrace: -eps cannot be negative, got -1\n"},
		{"zero delay", []string{"-delay", "0"}, 2, "tcptrace: -delay must be positive, got 0s\n"},
		{"negative jitter", []string{"-scenario", "jitter", "-jitter", "-5ms"}, 2, "tcptrace: -jitter cannot be negative, got -5ms\n"},
		{"negative duration", []string{"-duration", "-1s"}, 2, "tcptrace: -duration must be positive, got -1s\n"},
		{"unknown scenario", []string{"-scenario", "ring"}, 2, "tcptrace: unknown scenario \"ring\" (multipath|dumbbell|jitter)\n"},
		{"two problems", []string{"-eps", "-1", "-duration", "0s"}, 2,
			"tcptrace: -eps cannot be negative, got -1\ntcptrace: -duration must be positive, got 0s\n"},
		{"jitter run", []string{"-scenario", "jitter", "-duration", "1s"}, 0, "protocol:        TCP-PR\nscenario:        jitter\n"},
		{"multipath run", []string{"-eps", "1", "-duration", "1s"}, 0, "protocol:        TCP-PR\nscenario:        multipath\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace.tsv")
			var stdout, stderr bytes.Buffer
			code := run(append(tc.args, "-out", out), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			_, err := os.Stat(out)
			if tc.code != 0 {
				if stderr.String() != tc.want || stdout.Len() != 0 {
					t.Errorf("stderr %q and stdout %q, want stderr %q and no stdout", stderr.String(), stdout.String(), tc.want)
				}
				if err == nil {
					t.Error("a rejected invocation wrote its trace file")
				}
				return
			}
			if !strings.HasPrefix(stdout.String(), tc.want) || stderr.Len() != 0 {
				t.Errorf("stdout %q and stderr %q, want stdout starting %q and no stderr", stdout.String(), stderr.String(), tc.want)
			}
			if err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
