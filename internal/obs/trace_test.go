package obs

import (
	"strings"
	"testing"
)

func mkTrace(id int, total float64) StatementTrace {
	return StatementTrace{ID: id, TotalUS: total, AnalysisUS: total}
}

func TestTraceRingRecentWindow(t *testing.T) {
	r := NewTraceRing(4, 2)
	for i := 1; i <= 6; i++ {
		r.Add(mkTrace(i, float64(i)))
	}
	recent, _ := r.Snapshot(0)
	if len(recent) != 4 {
		t.Fatalf("recent len = %d, want 4", len(recent))
	}
	for i, want := range []int{6, 5, 4, 3} { // newest first
		if recent[i].ID != want {
			t.Errorf("recent[%d].ID = %d, want %d", i, recent[i].ID, want)
		}
	}
	limited, _ := r.Snapshot(2)
	if len(limited) != 2 || limited[0].ID != 6 || limited[1].ID != 5 {
		t.Errorf("Snapshot(2) recent = %+v", limited)
	}
}

func TestTraceRingSlowestRetention(t *testing.T) {
	r := NewTraceRing(2, 3)
	// The slow ones arrive early and must survive the recent window
	// scrolling past them.
	for _, total := range []float64{900, 950, 10, 11, 12, 13, 925, 14} {
		r.Add(mkTrace(int(total), total))
	}
	recent, slowest := r.Snapshot(0)
	if len(recent) != 2 {
		t.Fatalf("recent len = %d, want 2", len(recent))
	}
	if len(slowest) != 3 {
		t.Fatalf("slowest len = %d, want 3", len(slowest))
	}
	for i, want := range []float64{950, 925, 900} { // slowest first
		if slowest[i].TotalUS != want {
			t.Errorf("slowest[%d] = %v, want %v", i, slowest[i].TotalUS, want)
		}
	}
}

func TestEventFormatting(t *testing.T) {
	var b strings.Builder
	SetOutput(&b)
	defer SetOutput(testingDiscard{})
	Event("server", "checkpoint", "session", "prod a", "wal_seq", 42, "note", `x="y"`)
	out := b.String()
	for _, want := range []string{
		"component=server", "event=checkpoint",
		`session="prod a"`, "wal_seq=42", `note="x=\"y\""`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("event line missing %q: %s", want, out)
		}
	}
}

type testingDiscard struct{}

func (testingDiscard) Write(p []byte) (int, error) { return len(p), nil }
