// wfitlint machine-checks the repo's determinism, durability, and
// locking invariants: five repo-specific analyzers (nondeterminism,
// maprange, walrecord, parity, scrapereentry) plus stdlib-only
// reimplementations of x/tools passes: nilness, which `go vet` does not
// run, and copylocks and unusedresult, which extend their vet
// namesakes. See internal/lint and the README's "Static analysis"
// section.
//
// Usage:
//
//	wfitlint [-only name,name] [-list] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status is 1 when any finding survives the //lint:allow directives, 2
// on load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wfitlint [-only name,name] [-list] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "wfitlint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfitlint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfitlint:", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wfitlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
