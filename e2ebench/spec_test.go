package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// benchmarkJSON is the shape of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and the Go spec that
// the runs print from in step.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the spec %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	type m struct {
		Name, Unit, Better string
		Bound              float64
	}
	var gotE, wantE, gotL, wantL []m
	for _, x := range b.EndToEnd {
		gotE = append(gotE, m{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range EndToEnd {
		wantE = append(wantE, m{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range b.PerLayer {
		gotL = append(gotL, m{x.Name, x.Unit, x.Better, 0})
	}
	for _, x := range PerLayer {
		wantL = append(wantL, m{x.Name, x.Unit, x.Better, 0})
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("end_to_end differs from the spec:\n got %+v\nwant %+v", gotE, wantE)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("per_layer differs from the spec:\n got %+v\nwant %+v", gotL, wantL)
	}
	if b.RunSeconds != RunSeconds {
		t.Errorf("run_seconds = %d, the spec says %d", b.RunSeconds, RunSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"e2ebench"}) || b.Command[len(b.Command)-1] != "e2ebench/run.sh" {
		t.Errorf("command %q / paths %q do not name this directory", b.Command, b.Paths)
	}
	for _, x := range append(append([]Metric{}, EndToEnd...), PerLayer...) {
		if x.Better != "lower" && x.Better != "higher" {
			t.Errorf("%s: better = %q", x.Name, x.Better)
		}
	}
	for _, x := range PerLayer {
		if x.Layer == "" || x.Moves == "" || x.Most == "" || x.Least == "" {
			t.Errorf("%s lacks its layer, the metric it moves, or its workloads", x.Name)
		}
	}
}

func TestCadencesAlign(t *testing.T) {
	for _, w := range Workloads {
		d := w.DBA
		if d.VoteEvery%d.ReadEvery != 0 {
			t.Errorf("%s: votes every %d must fall on a read (every %d)", w.Name, d.VoteEvery, d.ReadEvery)
		}
		for _, every := range []int{warmupStatements, d.ReadEvery, d.ScrapeEvery, d.VoteEvery, d.AcceptEvery, w.Knobs.CheckpointEvery} {
			if every%w.PerRequest != 0 {
				t.Errorf("%s: position %d is not a request boundary (%d statements per request)", w.Name, every, w.PerRequest)
			}
		}
		for _, seconds := range []int{1, 10, 30} {
			total := inputSize(w, seconds) + warmupStatements
			if total%w.Knobs.CheckpointEvery != w.Knobs.CheckpointEvery/2 {
				t.Errorf("%s: %d statements leave a WAL tail of %d, want half a checkpoint", w.Name, total, total%w.Knobs.CheckpointEvery)
			}
		}
	}
}

func TestInputsAreSeededAndParse(t *testing.T) {
	cat, joins := datagen.Build()
	parser := sqlmini.NewParser(cat)
	for _, w := range Workloads {
		a, err := makeInputs(w, 1, 300)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := makeInputs(w, 1, 300)
		other, _ := makeInputs(w, 2, 300)
		if !reflect.DeepEqual(a.Sessions, again.Sessions) {
			t.Fatalf("%s: the same seed made different inputs", w.Name)
		}
		if len(a.Sessions) != w.Sessions || a.total() != 400 {
			t.Fatalf("%s: %d sessions of %d statements", w.Name, len(a.Sessions), a.total())
		}
		opts := workload.DefaultOptions()
		opts.Profile, opts.Phases = w.Profile, 3
		if w.QueryTemplates > 0 {
			opts.QueryTemplates = w.QueryTemplates
		}
		for i, s := range a.Sessions {
			opts.Seed = structureSeed(i)
			shapes := workload.Generate(cat, joins, opts)
			differ := 0
			for j, sql := range s.SQL {
				st, err := parser.Parse(sql)
				if err != nil {
					t.Fatalf("%s session %d statement %d does not parse: %v\n%s", w.Name, i, j, err, sql)
				}
				want := shapes.Statements[j]
				if st.Kind != want.Kind || !reflect.DeepEqual(st.Tables, want.Tables) || len(st.Preds) != len(want.Preds) {
					t.Fatalf("%s session %d statement %d changed shape:\n%s\n%s", w.Name, i, j, sql, want.SQL)
				}
				if sql != other.Sessions[i].SQL[j] {
					differ++
				}
			}
			if differ < len(s.SQL)*9/10 {
				t.Errorf("%s session %d: seeds 1 and 2 differ on only %d of %d statements", w.Name, i, differ, len(s.SQL))
			}
		}
		if w.Sessions > 1 && reflect.DeepEqual(a.Sessions[0].SQL, a.Sessions[1].SQL) {
			t.Errorf("%s: sessions share a stream", w.Name)
		}
	}
}
