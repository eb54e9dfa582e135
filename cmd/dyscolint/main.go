// Command dyscolint runs the repo's static-analysis suite (internal/lint)
// over the module: it loads, parses, and type-checks every package using
// only the standard library, applies the determinism and
// protocol-conformance analyzers, and prints findings as file:line:col lines.
// It exits non-zero when any finding survives //lint:ignore suppression.
//
// Usage:
//
//	dyscolint [-rules walltime,seqarith,...] [-json] [packages]
//
// The only package patterns supported are "./..." (the whole module, the
// default) and directory paths relative to the module root. -json switches
// the report to a machine-readable array.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated rule list (default: all)")
	list := flag.Bool("list", false, "list available rules and exit")
	asJSON := flag.Bool("json", false, "emit findings as JSON")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*rules)
	if err != nil {
		fatal(err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			all, err := loader.LoadAll()
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, all...)
		default:
			dir := strings.TrimSuffix(arg, "/...")
			if !filepath.IsAbs(dir) {
				dir = filepath.Join(cwd, dir)
			}
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
	}

	findings := lint.Run(pkgs, analyzers)
	for i, f := range findings {
		if r, err := filepath.Rel(root, f.Pos.Filename); err == nil {
			findings[i].Pos.Filename = r
		}
	}
	if *asJSON {
		type jsonFinding struct {
			Rule string `json:"rule"`
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Msg  string `json:"msg"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Rule: f.Rule, File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column, Msg: f.Msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dyscolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dyscolint:", err)
	os.Exit(2)
}
