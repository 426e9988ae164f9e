package lint

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// This harness mirrors golang.org/x/tools/go/analysis/analysistest:
// fixture packages live under testdata/src/<importpath>, and lines that
// should be flagged carry a trailing
//
//	// want `regexp` [`regexp` ...]
//
// comment (double quotes also accepted). Every diagnostic must match a
// want on its line, and every want must be matched by at least one
// diagnostic.

// wantStrRx extracts the quoted regexps from a // want comment.
var wantStrRx = regexp.MustCompile("`([^`]+)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

// collectWants scans the fixture's comments for // want expectations.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantStrRx.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: // want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, m := range ms {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					rx, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<path>, applies the analyzers, and
// checks the diagnostics against the fixture's // want comments.
func runFixture(t *testing.T, path string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, err := LoadFixture("testdata", path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	wants := collectWants(t, pkg)
	diags := Run([]*Package{pkg}, analyzers)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.rx)
		}
	}
}

func TestNondeterminismFixture(t *testing.T) {
	runFixture(t, "repro/internal/core/nondetfix", NondeterminismAnalyzer)
}

func TestTunerNondeterminismFixture(t *testing.T) {
	// The tuner-engine subtree is in the deterministic set: a new engine
	// drawing from math/rand or reading the clock is a finding.
	runFixture(t, "repro/internal/tuner/nondetfix", NondeterminismAnalyzer)
}

func TestNondeterminismIgnoresOtherPackages(t *testing.T) {
	// The same forbidden calls in a non-deterministic package (the
	// server layer legitimately reads the clock) produce no findings.
	pkg, err := LoadFixture("testdata", "otherpkg")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if diags := Run([]*Package{pkg}, []*Analyzer{NondeterminismAnalyzer}); len(diags) > 0 {
		t.Errorf("nondeterminism flagged a non-deterministic package: %v", diags)
	}
}

func TestMapRangeFixture(t *testing.T) {
	runFixture(t, "repro/internal/state", MapRangeAnalyzer)
}

func TestWALRecordFixture(t *testing.T) {
	runFixture(t, "walfix/internal/state", WALRecordAnalyzer)
}

func TestWALRecordCrossPackageFixture(t *testing.T) {
	runFixture(t, "walfix/consumer", WALRecordAnalyzer)
}

func TestParityFixture(t *testing.T) {
	runFixture(t, "parityfix", ParityAnalyzer)
}

func TestEngineCodecParityFixture(t *testing.T) {
	runFixture(t, "enginecodecfix", ParityAnalyzer)
}

func TestScrapeReentryFixture(t *testing.T) {
	runFixture(t, "scrapefix/internal/obs", ScrapeReentryAnalyzer)
}

func TestNilnessFixture(t *testing.T) {
	runFixture(t, "nilnessfix", NilnessAnalyzer)
}

func TestCopyLocksFixture(t *testing.T) {
	runFixture(t, "copylocksfix", CopyLocksAnalyzer)
}

func TestUnusedResultFixture(t *testing.T) {
	runFixture(t, "unusedresultfix", UnusedResultAnalyzer)
}

// TestDirectiveDiagnostics checks the //lint:allow directive grammar:
// an empty reason and a malformed directive are findings in their own
// right (analyzer "directive"), regardless of which analyzers run.
func TestDirectiveDiagnostics(t *testing.T) {
	pkg, err := LoadFixture("testdata", "directivefix")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := Run([]*Package{pkg}, nil)
	var got []string
	for _, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
		got = append(got, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
	}
	wantSubstr := []string{
		"needs a justification",
		"malformed //lint:allow directive",
	}
	if len(got) != len(wantSubstr) {
		t.Fatalf("got %d directive findings %v, want %d", len(got), got, len(wantSubstr))
	}
	for i, sub := range wantSubstr {
		if !strings.Contains(got[i], sub) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i], sub)
		}
	}
}

// TestFixtureWantLinesFire is the analysistest meta-check in the
// acceptance criteria: each custom analyzer has at least one fixture
// line that fails without it — running the fixture with the analyzer
// disabled must leave want expectations unmatched.
func TestFixtureWantLinesFire(t *testing.T) {
	cases := []struct {
		path string
		a    *Analyzer
	}{
		{"repro/internal/core/nondetfix", NondeterminismAnalyzer},
		{"repro/internal/tuner/nondetfix", NondeterminismAnalyzer},
		{"repro/internal/state", MapRangeAnalyzer},
		{"walfix/internal/state", WALRecordAnalyzer},
		{"parityfix", ParityAnalyzer},
		{"enginecodecfix", ParityAnalyzer},
		{"scrapefix/internal/obs", ScrapeReentryAnalyzer},
	}
	for _, tc := range cases {
		pkg, err := LoadFixture("testdata", tc.path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", tc.path, err)
		}
		var hasWant bool
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "// want ") {
						hasWant = true
					}
				}
			}
		}
		if !hasWant {
			t.Errorf("fixture %s has no want lines", tc.path)
			continue
		}
		if diags := Run([]*Package{pkg}, nil); len(diags) != 0 {
			t.Errorf("fixture %s: running NO analyzers still produced %d findings — the want lines do not depend on %s", tc.path, len(diags), tc.a.Name)
		}
		if diags := Run([]*Package{pkg}, []*Analyzer{tc.a}); len(diags) == 0 {
			t.Errorf("fixture %s: %s produced no findings — the fixture would pass without the analyzer", tc.path, tc.a.Name)
		}
	}
}
