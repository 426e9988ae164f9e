// Command e2ebench is the end-to-end and per-layer benchmark of the
// tuning service. See README.md in this directory for the workloads, the
// metrics and how to run it; run.sh builds everything and runs it.
//
// A run with --trace 0 drives wfit-serve (and, for durable-replicated,
// wfit-router and a -follower wfit-serve) as child processes and reports
// the client-observed metrics. A run with --trace 1 replays the same
// inputs in-process — once through the HTTP handlers wrapped in span
// middleware, once through the layers' public functions — and reports
// the per-layer metrics. Either run checks its correctness gates and
// exits non-zero, printing no result, when one fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if runProbeChild() {
		return
	}
	os.Exit(realMain())
}

// runProbeChild serves the host-speed probe when the binary was started
// as its child (see startProber), and reports whether it was.
func runProbeChild() bool {
	if len(os.Args) != 2 || os.Args[1] != probeArg {
		return false
	}
	if err := serveProbes(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench probe:", err)
		os.Exit(1)
	}
	return true
}

// stamp is the environment every result carries, so results from
// different hosts or settings are never compared silently.
type stamp struct {
	Workload      string   `json:"workload"`
	Seed          int64    `json:"seed"`
	Seconds       int      `json:"seconds"`
	Trace         int      `json:"trace"`
	NumCPU        int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	GoVersion     string   `json:"go_version"`
	Source        string   `json:"source_digest"`
	Commit        string   `json:"commit"`
	Loop          string   `json:"loop"`
	Clients       int      `json:"clients"`
	PerRequest    int      `json:"stmts_per_request"`
	Fsync         bool     `json:"fsync"`
	Replicated    bool     `json:"replicated"`
	ServeFlags    []string `json:"serve_flags"`
	FollowerFlags []string `json:"follower_flags,omitempty"`
	Knobs         knobs    `json:"session_knobs"`
	Warmup        int      `json:"warmup_statements"`
	Measured      int      `json:"measured_statements"`
}

func realMain() int {
	wname := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", DefaultSeed, "input seed (the confirmation seed is "+fmt.Sprint(ConfirmSeed)+")")
	seconds := flag.Int("seconds", RunSeconds, "run length; sets the input size (StmtsPerSecond x seconds per session)")
	trace := flag.Int("trace", 0, "0: end-to-end run against the daemons; 1: traced in-process per-layer run")
	work := flag.String("work", ".bench_build", "directory for daemon data, logs and results")
	binDir := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the wfit-serve and wfit-router binaries")
	flag.Parse()

	w, err := workloadByName(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	in, err := makeInputs(w, *seed, inputSize(w, *seconds))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	st, err := newStamp(in, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(mustMkdir(filepath.Join(*work, "runs")), w.Name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	var out *outcome
	if *trace == 0 {
		bins := binaries{serve: filepath.Join(*binDir, "wfit-serve"), router: filepath.Join(*binDir, "wfit-router")}
		out, err = runEndToEnd(in, bins, runDir)
	} else {
		out, err = runTraced(in, runDir, filepath.Join(*work, "traces"))
	}
	if err == nil {
		err = checkReference(*work, st, out.totalWork)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: FAILED: %v\n", w.Name, *seed, err)
		return 1
	}
	names := EndToEnd
	if *trace == 1 {
		names = PerLayer
	}
	res, err := report(os.Stdout, st, names, out)
	if err == nil {
		err = saveResult(*work, st, res, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func mustMkdir(dir string) string {
	os.MkdirAll(dir, 0o755) //nolint:errcheck // MkdirTemp reports the failure
	return dir
}

// newStamp reads the fsync policy from the primary's flags, the ones the
// daemons are started with.
func newStamp(in *inputs, seconds, trace int) (stamp, error) {
	w := in.W
	sf, err := parseServeFlags(w.ServeFlags)
	if err != nil {
		return stamp{}, err
	}
	return stamp{
		Workload: w.Name, Seed: in.Seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Source: os.Getenv("E2EBENCH_SOURCE"), Commit: os.Getenv("E2EBENCH_COMMIT"),
		Loop: LoopType, Clients: w.Sessions, PerRequest: w.PerRequest,
		Fsync: sf.Fsync, Replicated: w.replicated(),
		ServeFlags: append([]string{}, w.ServeFlags...), FollowerFlags: w.FollowerFlags,
		Knobs: w.Knobs, Warmup: in.Warmup, Measured: in.Measured,
	}, nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the stamp, every metric by name with its unit, and the
// evidence lines, and builds the result. A metric the run did not produce
// is an error, never a silent gap.
func report(f io.Writer, st stamp, names []Metric, out *outcome) (result, error) {
	res := result{Correct: true, Attempted: out.tally.attempted, Failed: out.tally.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no requests were attempted")
	}
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(f, "env %s\n", stampJSON)
	for _, m := range names {
		v, ok := out.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s missing or not finite (%v)", m.Name, v)
		}
		fmt.Fprintf(f, "metric %-30s %16.4f %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	keys := make([]string, 0, len(out.info))
	for k := range out.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, _ := json.Marshal(out.info[k])
		fmt.Fprintf(f, "info   %-30s %s\n", k, v)
	}
	fmt.Fprintf(f, "info   %-30s %d of %d requests\n", "failed", out.tally.failed, out.tally.attempted)
	return res, nil
}

// saveResult keeps the full result with its stamp under work/results.
func saveResult(work string, st stamp, res result, out *outcome) error {
	dir := mustMkdir(filepath.Join(work, "results"))
	data, err := json.MarshalIndent(map[string]any{"env": st, "result": res, "info": out.info}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", st.Workload, st.Seed, st.Trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// checkReference enforces that every run of the same inputs on the same
// source — end-to-end through the daemons or traced in-process — ends on
// a bit-identical total work. The first run of an input records it.
func checkReference(work string, st stamp, totalWork float64) error {
	if st.Source == "" {
		return nil
	}
	dir := mustMkdir(filepath.Join(work, "reference"))
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-n%d-%s.json", st.Workload, st.Seed, st.Warmup+st.Measured, st.Source))
	type ref struct {
		TotalWorkBits uint64  `json:"total_work_bits"`
		TotalWork     float64 `json:"total_work"`
		Trace         int     `json:"trace"`
	}
	if data, err := os.ReadFile(path); err == nil {
		var r ref
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		if r.TotalWorkBits != math.Float64bits(totalWork) {
			return fmt.Errorf("gate: total work %v differs from %v recorded by a --trace %d run of the same inputs", totalWork, r.TotalWork, r.Trace)
		}
		return nil
	}
	data, err := json.Marshal(ref{TotalWorkBits: math.Float64bits(totalWork), TotalWork: totalWork, Trace: st.Trace})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
