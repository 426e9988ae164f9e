// Package lint is the repo's static-analysis suite: five analyzers that
// machine-check the invariants every bit-identical-trajectory proof in
// this codebase rests on (no wall-clock or math/rand in state-bearing
// packages, ordered float accumulation, exhaustive WAL-record handling,
// Export/Restore field parity, no re-entry into the obs registry lock),
// plus stdlib-only reimplementations of x/tools passes: nilness, which
// `go vet` does not run, and copylocks and unusedresult, which extend
// their vet namesakes.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape —
// Analyzer, Pass, Diagnostic, testdata fixtures with `// want` comments —
// but is built entirely on the standard library (go/ast, go/types, and
// export data from `go list -export`), because this module deliberately
// has zero external dependencies.
//
// Audited exceptions are annotated in the source with
//
//	//lint:allow <analyzer>(<reason>)
//
// on the offending line or the line directly above it. The reason is
// mandatory; an empty reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this module; analyzers use it
// to recognize module-local packages (fixtures under testdata mimic it).
const ModulePath = "repro"

// An Analyzer describes one analysis and its entry point.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass)
}

// A Pass connects an analyzer run to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos. Findings on lines covered by a
// matching //lint:allow directive are suppressed centrally by Run.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (function or method), or nil for dynamic calls, conversions, and
// builtins.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// allowRx matches //lint:allow name(reason) directives.
var allowRx = regexp.MustCompile(`^//lint:allow\s+([a-z0-9-]+)\((.*)\)\s*$`)

// allowKey identifies one (file, line, analyzer) allow site.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// collectAllows scans the package's comments for allow directives. A
// directive covers findings on its own line and on the line directly
// below it (comment-above style). Malformed directives — an empty
// reason — are returned as findings themselves.
func collectAllows(fset *token.FileSet, files []*ast.File) (map[allowKey]bool, []Diagnostic) {
	allows := make(map[allowKey]bool)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRx.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//lint:allow") {
						bad = append(bad, Diagnostic{
							Analyzer: "directive",
							Pos:      fset.Position(c.Pos()),
							Message:  "malformed //lint:allow directive: want //lint:allow name(reason)",
						})
					}
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("//lint:allow %s() needs a justification", m[1]),
					})
					continue
				}
				pos := fset.Position(c.Pos())
				allows[allowKey{pos.Filename, pos.Line, m[1]}] = true
				allows[allowKey{pos.Filename, pos.Line + 1, m[1]}] = true
			}
		}
	}
	return allows, bad
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position. Allow directives are honored here, so
// individual analyzers never need to re-implement suppression.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg.Fset, pkg.Files)
		out = append(out, bad...)
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
		for _, d := range diags {
			if !allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out
}

// All returns the full suite: the five repo-specific analyzers followed
// by the stock-pass reimplementations.
func All() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		MapRangeAnalyzer,
		WALRecordAnalyzer,
		ParityAnalyzer,
		ScrapeReentryAnalyzer,
		NilnessAnalyzer,
		CopyLocksAnalyzer,
		UnusedResultAnalyzer,
	}
}
