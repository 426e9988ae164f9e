package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the packages whose behavior must be a pure
// function of the WAL stream: every bit-identical differential proof
// (crash recovery, compaction replay, batched ingest, failover
// promotion) quantifies over exactly this code. A wall-clock read or a
// global random stream here silently breaks all of them.
var deterministicPkgs = []string{
	ModulePath + "/internal/core",
	ModulePath + "/internal/state",
	ModulePath + "/internal/interaction",
	ModulePath + "/internal/index",
	ModulePath + "/internal/whatif",
	// Every tuner engine (the wfit adapter, the bandit, and whatever
	// registers next) replays from the same WAL stream: the whole
	// subtree inherits the bit-identical recovery obligation.
	ModulePath + "/internal/tuner",
}

// isDeterministicPkg reports whether path is (or is nested under) one of
// the deterministic packages.
func isDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// forbiddenImports are entire packages whose presence in deterministic
// code is a finding: math/rand draws from a process-global (or at best
// un-serialized) stream, so any use makes the trajectory depend on what
// else ran in the process. Deterministic code draws from
// interaction.Rand, whose position is part of the snapshot.
var forbiddenImports = map[string]string{
	"math/rand":    "use interaction.Rand (seeded, serialized in snapshots) instead",
	"math/rand/v2": "use interaction.Rand (seeded, serialized in snapshots) instead",
}

// forbiddenTimeFuncs are the wall-clock reads. time.Duration values and
// time.Time arithmetic on values handed in from outside are fine — it
// is the *read* of the clock that injects nondeterminism.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// NondeterminismAnalyzer forbids wall-clock and global-random use in the
// deterministic packages.
var NondeterminismAnalyzer = &Analyzer{
	Name: "nondeterminism",
	Doc: "forbid math/rand and time.Now/Since/Until in packages whose behavior " +
		"must be a deterministic function of the WAL stream",
	Run: runNondeterminism,
}

func runNondeterminism(pass *Pass) {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, spec := range f.Imports {
			path := unquoteImport(spec)
			if hint, ok := forbiddenImports[path]; ok {
				pass.Reportf(spec.Pos(), "deterministic package %s imports %s: %s", pass.Pkg.Path(), path, hint)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.CalleeFunc(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "time" && forbiddenTimeFuncs[fn.Name()] &&
				fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(), "wall-clock read time.%s in deterministic package %s: timing may feed only observability, never state (annotate audited uses with //lint:allow nondeterminism(reason))", fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
}
