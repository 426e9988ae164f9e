package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// TestMain lets the test binary serve as the probe child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if runProbeChild() {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// buildDaemons builds wfit-serve and wfit-router from the enclosing
// repository, as run.sh does.
func buildDaemons(t *testing.T) binaries {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"wfit-serve", "wfit-router"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	return binaries{serve: filepath.Join(dir, "wfit-serve"), router: filepath.Join(dir, "wfit-router")}
}

// checkPrinted renders a run's report and checks that every named metric
// is printed by name with its unit, and that the last line is a result
// object with exactly the four keys and every metric as {value, unit}.
func checkPrinted(t *testing.T, names []Metric, out *outcome) {
	t.Helper()
	var buf bytes.Buffer
	res, err := report(&buf, stamp{Workload: "smoke"}, names, out)
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, m := range names {
		re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
		if !re.MatchString(text) {
			t.Errorf("metric %s [%s] is not printed with its unit:\n%s", m.Name, m.Unit, text)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !equalStrings(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(names) {
		t.Errorf("result has %d metrics, want %d", len(metrics), len(names))
	}
	for _, m := range names {
		v := metrics[m.Name]
		if _, ok := v["value"].(float64); !ok || v["unit"] != m.Unit || len(v) != 2 {
			t.Errorf("result metric %s = %v, want {value, unit %q}", m.Name, v, m.Unit)
		}
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeAllWorkloads runs every workload end to end against the real
// daemons and traced in-process, on a tiny input, and checks the printed
// output and that both runs end on the same total work.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	bins := buildDaemons(t)
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			// 340 statements: every DBA request kind is due at least once,
			// and the WAL tail is non-empty for the recovery gate.
			in, err := makeInputs(w, 3, 240)
			if err != nil {
				t.Fatal(err)
			}
			e2e, err := runEndToEnd(in, bins, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, EndToEnd, e2e)
			for _, m := range EndToEnd {
				if e2e.metrics[m.Name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, e2e.metrics[m.Name])
				}
			}
			traced, err := runTraced(in, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, PerLayer, traced)
			if math.Float64bits(e2e.totalWork) != math.Float64bits(traced.totalWork) {
				t.Errorf("the daemons ended on total work %v, the traced run on %v", e2e.totalWork, traced.totalWork)
			}
		})
	}
}
