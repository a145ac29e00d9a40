package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tcppr/internal/metrics"
)

// invoke runs the command in-process with "D" in args standing for dir.
func invoke(dir string, args ...string) (code int, stdout, stderr string) {
	for i, a := range args {
		if a == "D" || strings.HasPrefix(a, "D/") {
			args[i] = dir + a[1:]
		}
	}
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func files(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestBadInvocationsExitTwo: every contradictory or out-of-range flag
// combination the package comment documents dies up front — exit status
// 2, one "tcpsim:" line per problem, nothing written.
func TestBadInvocationsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		problems int
	}{
		{"unknown flag", []string{"-no-such-flag"}, 0},
		{"unknown topology", []string{"-topology", "ring"}, 1},
		{"unknown protocol", []string{"-protocols", "TCP-PR,TCP-Bogus"}, 1},
		{"zero flows", []string{"-flows", "0"}, 1},
		{"negative duration", []string{"-duration", "-1s"}, 1},
		{"negative warm", []string{"-warm", "-1s"}, 1},
		{"eps out of range", []string{"-eps", "-1"}, 1},
		{"zero delay", []string{"-delay", "0s"}, 1},
		{"alpha out of range", []string{"-alpha", "1"}, 1},
		{"beta below one", []string{"-beta", "0.5"}, 1},
		{"zero shards", []string{"-topology", "city", "-shards", "0"}, 1},
		{"negative fault-at", []string{"-fault-at", "-1s"}, 1},
		{"negative abort threshold", []string{"-abort-r2", "-1"}, 1},
		{"r1 above r2", []string{"-abort-r1", "5", "-abort-r2", "3"}, 1},
		{"negative jitter", []string{"-jitter", "-1ms"}, 1},
		{"unknown reorder model", []string{"-reorder", "bogus"}, 1},
		{"unknown repair scenario", []string{"-repair", "bogus"}, 1},
		{"unknown fault scenario", []string{"-faults", "bogus"}, 1},
		{"unknown host scenario", []string{"-host-faults", "bogus"}, 1},
		{"reorder without a bottleneck", []string{"-topology", "multipath", "-reorder", "swap-high"}, 1},
		{"faults without a bottleneck", []string{"-topology", "city", "-faults", "blackout-2s"}, 1},
		{"abort policy on multipath", []string{"-topology", "multipath", "-abort-r2", "3"}, 1},
		{"abort policy on city", []string{"-topology", "city", "-abort-user-timeout", "5s"}, 1},
		{"trace on city", []string{"-topology", "city", "-trace", "D/x.json"}, 1},
		{"trace-tsv on city", []string{"-topology", "city", "-trace-tsv", "D/x.tsv"}, 1},
		{"flight recorder on city", []string{"-topology", "city", "-flight-recorder", "D/f.txt"}, 1},
		{"negative heartbeat", []string{"-heartbeat", "-1s"}, 1},
		{"negative watchdog", []string{"-watchdog-timeout", "-1s"}, 1},
		{"engine profile off city", []string{"-engine-profile", "-metrics", "D"}, 1},
		{"engine profile without metrics", []string{"-topology", "city", "-engine-profile"}, 1},
		{"empty metrics path", []string{"-metrics", ""}, 1},
		{"empty trace path", []string{"-trace", ""}, 1},
		{"empty trace-tsv path", []string{"-trace-tsv", ""}, 1},
		{"empty flight path", []string{"-flight-recorder", ""}, 1},
		{"three problems at once", []string{"-flows", "0", "-eps", "-7", "-metrics", "D", "-topology", "city", "-trace", "D/x.json"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stdout, stderr := invoke(dir, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("usage errors printed to stdout:\n%s", stdout)
			}
			if tc.problems > 0 {
				if n := strings.Count(stderr, "tcpsim: "); n != tc.problems {
					t.Errorf("%d problem line(s), want %d:\n%s", n, tc.problems, stderr)
				}
			}
			if left := files(t, dir); len(left) != 0 {
				t.Errorf("a rejected invocation created %v", left)
			}
		})
	}
}

func TestListsExitZero(t *testing.T) {
	for flagName, want := range map[string]string{
		"-faults": "blackout-2s", "-host-faults": "host-dead", "-reorder": "swap-high", "-repair": "repair-tight",
	} {
		code, stdout, stderr := invoke("", flagName, "list")
		if code != 0 || !strings.Contains(stdout, want) || stderr != "" {
			t.Errorf("%s list: exit %d, stdout lacks %q or stderr non-empty:\n%s%s", flagName, code, want, stdout, stderr)
		}
	}
}

// TestGoodRunFileSets: short runs of each topology exit 0 and leave
// exactly the expected files, every one of them indexed by the manifest.
func TestGoodRunFileSets(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		want      []string
		manifests []string
	}{
		{"dumbbell, everything on",
			[]string{"-duration", "2s", "-warm", "1s", "-flows", "2", "-faults", "blackout-2s", "-fault-at", "1s",
				"-check", "-heartbeat", "1ms", "-metrics", "D", "-trace", "D/run.trace.json",
				"-trace-tsv", "D/run.spans.tsv", "-flight-recorder", "D/run.flight.txt"},
			[]string{"run.spans.tsv", "run.trace.json", "tcpsim_dumbbell_blackout-2s.heartbeat.jsonl",
				"tcpsim_dumbbell_blackout-2s.manifest.json", "tcpsim_dumbbell_blackout-2s.series.tsv"},
			[]string{"tcpsim_dumbbell_blackout-2s.manifest.json"}},
		{"multipath, one file set per protocol",
			[]string{"-topology", "multipath", "-protocols", "TCP-PR,TCP-SACK", "-duration", "1s", "-warm", "1s",
				"-metrics", "D", "-trace-tsv", "D/mp.tsv"},
			[]string{"mp_TCP-PR.tsv", "mp_TCP-SACK.tsv",
				"tcpsim_multipath_TCP-PR.manifest.json", "tcpsim_multipath_TCP-PR.series.tsv",
				"tcpsim_multipath_TCP-SACK.manifest.json", "tcpsim_multipath_TCP-SACK.series.tsv"},
			[]string{"tcpsim_multipath_TCP-PR.manifest.json", "tcpsim_multipath_TCP-SACK.manifest.json"}},
		{"city with the engine profile",
			[]string{"-topology", "city", "-shards", "2", "-districts", "4", "-hosts", "2", "-duration", "300ms",
				"-check", "-engine-profile", "-metrics", "D"},
			[]string{"tcpsim_city.engine.json", "tcpsim_city.engine.trace.json", "tcpsim_city.engine.tsv",
				"tcpsim_city.manifest.json"},
			[]string{"tcpsim_city.manifest.json"}},
		{"nothing requested, nothing written",
			[]string{"-duration", "1s", "-warm", "1s", "-flows", "2"}, nil, nil},
		{"multipath at a Gibbs exponent above 1",
			[]string{"-topology", "multipath", "-protocols", "TCP-PR", "-eps", "4", "-duration", "1s", "-warm", "1s"}, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stdout, stderr := invoke(dir, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			got := files(t, dir)
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("files = %v\nwant    %v", got, tc.want)
			}
			indexed := map[string]bool{}
			for _, name := range tc.manifests {
				m, err := metrics.ReadManifest(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				indexed[name] = true
				if line := fmt.Sprintf("scheduler: %d events, heap pushes %d pops %d ", m.EventsProcessed, m.Scheduler.Pushes, m.Scheduler.Pops); m.Scheduler.LanePushes == 0 || !strings.Contains(stdout, line) {
					t.Errorf("%s: scheduler block %+v, and no %q on stdout:\n%s", name, *m.Scheduler, line, stdout)
				}
				for _, a := range m.Artifacts {
					indexed[a] = true
				}
				for _, s := range m.Series {
					indexed[s.File] = true
				}
			}
			for _, name := range got {
				if !indexed[name] {
					t.Errorf("%s is indexed by no manifest", name)
				}
			}
			if !strings.Contains(stdout, "\nscheduler: ") {
				t.Errorf("no scheduler line on stdout:\n%s", stdout)
			}
			if strings.Contains(strings.Join(tc.args, " "), "-check") && !strings.Contains(stdout, "invariants: ok (0 violations)") {
				t.Errorf("no invariant verdict on stdout:\n%s", stdout)
			}
		})
	}
}
