// Package lint is a repo-specific static-analysis suite built only on the
// standard library's go/parser, go/ast, and go/types. It enforces the
// invariants the internal/model checker assumes but the type system cannot
// express: no wall clock, unseeded randomness or second goroutine inside
// simulator packages, no raw mod-2^32 sequence arithmetic outside the
// packet helpers, no event scheduling from nondeterministic map iteration,
// and no silently dropped errors on the packet/TCP send paths.
//
// Findings are suppressed with a justified comment on or directly above the
// offending line:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory: a suppression without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a position.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one named rule. Per-package rules implement Run; rules that
// need a whole-module view (cross-package call graphs, conformance against
// another package's model) implement RunModule instead. Exactly one of the
// two should be set.
type Analyzer struct {
	// Name is the rule ID used in reports and //lint:ignore comments.
	Name string
	// Doc is a one-line description of the invariant the rule guards.
	Doc string
	// Run reports violations in pkg. Suppression is applied by the caller.
	Run func(pkg *Package) []Finding
	// RunModule reports violations across all loaded packages at once.
	RunModule func(pkgs []*Package) []Finding
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer,
		SeqarithAnalyzer,
		MapiterAnalyzer,
		ErrdropAnalyzer,
		StatexhaustAnalyzer,
		RewritetaintAnalyzer,
		ObsexhaustAnalyzer,
	}
}

// ByName resolves a comma-separated rule list ("walltime,seqarith") to
// analyzers; an unknown name is an error.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// ignoreDirective is one parsed //lint:ignore comment. It suppresses
// matching findings on its own line (trailing comment) and on the line
// directly below it (comment above the offending statement).
type ignoreDirective struct {
	rules  map[string]bool // rule IDs the directive covers
	reason string
	pos    token.Position
}

const ignorePrefix = "//lint:ignore"

// parseIgnores collects the //lint:ignore directives of a file.
func parseIgnores(pkg *Package, f *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			fields := strings.Fields(rest)
			d := &ignoreDirective{pos: pkg.Fset.Position(c.Pos()), rules: make(map[string]bool)}
			if len(fields) >= 1 {
				for _, r := range strings.Split(fields[0], ",") {
					d.rules[r] = true
				}
			}
			if len(fields) >= 2 {
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppression, and returns surviving findings sorted by position. A
// malformed directive (no rule, or no reason) is reported as a finding of
// rule "lint", and so is a directive that suppressed nothing — a stale
// suppression hides the next real finding on its line, so it must go as
// soon as the code it excused is gone. Unused reporting only fires when
// every rule the directive names is part of this run; a `-rules` subset
// cannot know whether the other rules still need it. A rule name the suite
// does not have at all (a typo, a retired rule) is a finding in every run:
// no run could ever use or expire that directive.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	var ignores []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ignores = append(ignores, parseIgnores(pkg, f)...)
		}
	}
	exists := make(map[string]bool)
	for _, a := range All() {
		exists[a.Name] = true
	}
	for _, d := range ignores {
		if len(d.rules) == 0 || d.reason == "" {
			all = append(all, Finding{
				Rule: "lint",
				Pos:  d.pos,
				Msg:  "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"",
			})
		}
		for _, r := range sortedRules(d.rules) {
			if !exists[r] {
				all = append(all, Finding{
					Rule: "lint",
					Pos:  d.pos,
					Msg:  fmt.Sprintf("//lint:ignore names unknown rule %q (dyscolint -list shows the rules)", r),
				})
			}
		}
	}
	used := make(map[*ignoreDirective]bool)
	keep := func(f Finding) {
		if d := suppressor(f, ignores); d != nil {
			used[d] = true
			return
		}
		all = append(all, f)
	}
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				for _, f := range a.Run(pkg) {
					keep(f)
				}
			}
		}
		if a.RunModule != nil {
			for _, f := range a.RunModule(pkgs) {
				keep(f)
			}
		}
	}
	ruleSet := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ruleSet[a.Name] = true
	}
	for _, d := range ignores {
		if used[d] || len(d.rules) == 0 || d.reason == "" {
			continue
		}
		names := sortedRules(d.rules)
		inRun := true
		for _, r := range names {
			inRun = inRun && ruleSet[r]
		}
		if !inRun {
			continue
		}
		all = append(all, Finding{
			Rule: "lint",
			Pos:  d.pos,
			Msg:  fmt.Sprintf("unused //lint:ignore %s: the directive suppresses nothing; remove it", strings.Join(names, ",")),
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos.Filename != all[j].Pos.Filename {
			return all[i].Pos.Filename < all[j].Pos.Filename
		}
		if all[i].Pos.Line != all[j].Pos.Line {
			return all[i].Pos.Line < all[j].Pos.Line
		}
		return all[i].Rule < all[j].Rule
	})
	return all
}

func sortedRules(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for r := range set {
		names = append(names, r)
	}
	sort.Strings(names)
	return names
}

// suppressor returns the directive that suppresses f, or nil.
func suppressor(f Finding, ignores []*ignoreDirective) *ignoreDirective {
	for _, d := range ignores {
		if d.reason == "" || len(d.rules) == 0 {
			continue
		}
		if f.Pos.Filename != d.pos.Filename || !d.rules[f.Rule] {
			continue
		}
		if f.Pos.Line == d.pos.Line || f.Pos.Line == d.pos.Line+1 {
			return d
		}
	}
	return nil
}
