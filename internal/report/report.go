// Package report renders experiment results as ASCII line charts and CSV,
// so every figure of the paper can be regenerated in a terminal without
// plotting dependencies.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve. X coordinates are implicit indices 0..len-1
// (statement positions in our experiments).
type Series struct {
	Name string
	Y    []float64
}

// markers assigns one rune per series, cycling when exhausted.
var markers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '~'}

// Chart renders the series as an ASCII chart of the given interior size.
// Y axis is labeled with min/max; series overlap draws the later marker.
func Chart(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	maxLen := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Y) > maxLen {
			maxLen = len(s.Y)
		}
		for _, v := range s.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if maxLen == 0 || math.IsInf(lo, 1) {
		return title + "\n(no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for c := 0; c < width; c++ {
			// Sample the series at this column.
			pos := float64(c) / float64(width-1) * float64(len(s.Y)-1)
			i := int(pos)
			if i < 0 || i >= len(s.Y) {
				continue
			}
			v := s.Y[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			row := int((hi - v) / (hi - lo) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][c] = mark
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	axisW := 10
	for r := 0; r < height; r++ {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%.3g", hi)
		case height - 1:
			label = fmt.Sprintf("%.3g", lo)
		case (height - 1) / 2:
			label = fmt.Sprintf("%.3g", lo+(hi-lo)/2)
		}
		fmt.Fprintf(&b, "%*s |%s|\n", axisW, label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%*s +%s+\n", axisW, "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%*s 0%sstatement %d\n", axisW, "",
		strings.Repeat(" ", max(1, width-12-len(fmt.Sprint(maxLen-1)))), maxLen-1)
	for si, s := range series {
		fmt.Fprintf(&b, "%*s %c = %s", axisW, "", markers[si%len(markers)], s.Name)
		if n := len(s.Y); n > 0 {
			fmt.Fprintf(&b, " (final %.3f)", s.Y[n-1])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the series as comma-separated columns with a header row.
// Series of different lengths are padded with empty cells.
func CSV(series []Series) string {
	var b strings.Builder
	b.WriteString("n")
	maxLen := 0
	for _, s := range series {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(s.Name, ",", "_"))
		if len(s.Y) > maxLen {
			maxLen = len(s.Y)
		}
	}
	b.WriteString("\n")
	for i := 0; i < maxLen; i++ {
		fmt.Fprintf(&b, "%d", i)
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, ",%.6g", s.Y[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table renders rows of labeled values with aligned columns.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
