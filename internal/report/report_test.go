package report

import (
	"math"
	"strings"
	"testing"
)

func TestChartBasics(t *testing.T) {
	s := []Series{
		{Name: "up", Y: []float64{0, 1, 2, 3, 4}},
		{Name: "down", Y: []float64{4, 3, 2, 1, 0}},
	}
	out := Chart("test chart", s, 20, 6)
	if !strings.Contains(out, "test chart") {
		t.Fatalf("title missing")
	}
	if !strings.Contains(out, "* = up") || !strings.Contains(out, "o = down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "(final 4.000)") || !strings.Contains(out, "(final 0.000)") {
		t.Fatalf("final values missing:\n%s", out)
	}
	// Axis labels for min and max.
	if !strings.Contains(out, "4") || !strings.Contains(out, "0") {
		t.Fatalf("axis labels missing")
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("empty", nil, 20, 6)
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart should say so: %q", out)
	}
}

func TestChartConstantSeries(t *testing.T) {
	s := []Series{{Name: "flat", Y: []float64{2, 2, 2}}}
	out := Chart("flat", s, 16, 4)
	if !strings.Contains(out, "flat") {
		t.Fatalf("constant series broke the chart")
	}
}

func TestChartHandlesNaN(t *testing.T) {
	s := []Series{{Name: "gappy", Y: []float64{1, math.NaN(), 3}}}
	out := Chart("gaps", s, 16, 4)
	if out == "" {
		t.Fatalf("NaN values broke the chart")
	}
}

func TestCSV(t *testing.T) {
	s := []Series{
		{Name: "a", Y: []float64{1, 2}},
		{Name: "b,c", Y: []float64{3}},
	}
	out := CSV(s)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "n,a,b_c" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,1,3" {
		t.Fatalf("row 0 = %q", lines[1])
	}
	if lines[2] != "1,2," {
		t.Fatalf("row 1 (padded) = %q", lines[2])
	}
}

func TestTable(t *testing.T) {
	out := Table(
		[]string{"name", "value"},
		[][]string{{"alpha", "1"}, {"b", "22"}},
	)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator = %q", lines[1])
	}
	// Alignment: both rows same width for first column.
	if len(lines[2]) < len("alpha  1") {
		t.Fatalf("row = %q", lines[2])
	}
}
