package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the acceptance gate: the full suite over the whole
// module must produce zero findings. Every audited exception is
// expected to carry a //lint:allow directive at the offending line.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLoadResolvesDeps checks the export-data loader end to end: a real
// module package type-checks with its module-internal and stdlib deps
// resolved from `go list -export` output.
func TestLoadResolvesDeps(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), "./internal/catalog")
	if err != nil {
		t.Fatalf("loading internal/catalog: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != ModulePath+"/internal/catalog" {
		t.Errorf("path = %q", pkg.Path)
	}
	if pkg.Types.Scope().Lookup("Catalog") == nil {
		t.Error("type Catalog not found in loaded package scope")
	}
}

// TestDeterministicPkgsExist keeps the deterministic set honest: an
// entry that names no package in the module guards nothing, and a
// renamed package would silently drop out of the nondeterminism check.
func TestDeterministicPkgsExist(t *testing.T) {
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	pkgs := strings.Fields(string(out))
	for _, p := range deterministicPkgs {
		if !slices.ContainsFunc(pkgs, func(path string) bool { return path == p || strings.HasPrefix(path, p+"/") }) {
			t.Errorf("deterministicPkgs entry %q matches no package in the module", p)
		}
	}
}

func TestAllAnalyzerNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
