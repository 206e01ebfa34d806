// Command wehey-lint runs the repository's determinism-invariant analyzers
// (internal/analysis) over the given package patterns.
//
// Usage:
//
//	wehey-lint [-json] [-list] [-graph] [-why <func>] [-ignores] [patterns...]
//
// Patterns default to ./... . Exit status is 0 when clean, 1 when findings
// were reported, 2 on a driver error (parse/typecheck/go list failure).
// Findings are suppressed per line with:
//
//	//lint:ignore <analyzer> <reason>
//
// Dead directives — naming an unknown analyzer, or suppressing nothing —
// are themselves findings (analyzer "deadignore").
//
// Inspection modes:
//
//	-graph        dump the module call graph: one line per function with
//	              its call/fact counters, plus summary totals.
//	-why <func>   explain what invariant-relevant operations a function
//	              transitively reaches (wall clock, global math/rand,
//	              blocking calls), with a witness call chain for each.
//	              <func> matches a full label ("internal/service.(*Scheduler).Submit")
//	              or any suffix ("Submit").
//	-ignores      list the live lint:ignore directives with their reasons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/nal-epfl/wehey/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings (or -ignores listing) as JSON instead of text lines")
	list := flag.Bool("list", false, "list the analyzers and exit")
	graph := flag.Bool("graph", false, "dump the module call graph and exit")
	why := flag.String("why", "", "explain what invariant-relevant operations a function reaches and exit")
	ignores := flag.Bool("ignores", false, "list live lint:ignore directives and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *graph || *why != "" {
		pkgs, err := analysis.Load(".", patterns)
		if err != nil {
			fail(err)
		}
		if len(pkgs) == 0 {
			fail(fmt.Errorf("no packages matched %v", patterns))
		}
		m := analysis.BuildModule(pkgs[0].Fset, pkgs)
		if *graph {
			printGraph(m)
		} else if !printWhy(m, *why) {
			fmt.Fprintf(os.Stderr, "wehey-lint: no function matches %q\n", *why)
			os.Exit(2)
		}
		return
	}

	res, err := analysis.RunAudit(".", patterns, analysis.All(), analysis.DefaultConfig())
	if err != nil {
		fail(err)
	}

	if *ignores {
		sups := res.Suppressions
		if sups == nil {
			sups = []analysis.Suppression{}
		}
		if *jsonOut {
			emitJSON(sups)
		} else {
			for _, s := range sups {
				fmt.Printf("%s:%d: %s: %s\n", relify(s.File), s.Line, s.Analyzer, s.Reason)
			}
		}
		return
	}

	diags := res.Diagnostics
	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		emitJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(relify(d.String()))
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "wehey-lint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func printGraph(m *analysis.Module) {
	st := m.Stats()
	fmt.Printf("packages=%d functions=%d edges=%d\n", st.Packages, st.Functions, st.Edges)
	for _, n := range m.Nodes() {
		fmt.Printf("%s calls=%d wall=%d rand=%d block=%d\n",
			m.FuncLabel(n.Fn), len(n.Calls), len(n.WallSinks), len(n.RandSinks), len(n.Blocking))
	}
}

func printWhy(m *analysis.Module, name string) bool {
	reports := m.Why(name)
	for _, r := range reports {
		fmt.Print(relify(r))
	}
	return len(reports) > 0
}

// relify strips the working-directory prefix from file positions so the
// human-readable output stays short and stable across checkouts. JSON
// output keeps absolute paths for editor integrations.
func relify(s string) string {
	wd, err := os.Getwd()
	if err != nil {
		return s
	}
	return strings.ReplaceAll(s, wd+string(filepath.Separator), "")
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "wehey-lint: %v\n", err)
	os.Exit(2)
}
