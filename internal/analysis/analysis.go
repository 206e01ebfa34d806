// Package analysis is a stdlib-only static-analysis framework encoding the
// repository's determinism invariants. The simulator's scientific claims rest
// on bit-reproducible runs: a stray global math/rand call, a wall-clock read
// inside simulated time, an unsorted map iteration feeding a report, or an
// order-coupled seed counter silently changes experiment output without
// failing any test. `go vet` cannot see these domain invariants, so this
// package implements its own analyzers on top of go/parser, go/ast and
// go/types (source-mode importer — no golang.org/x/tools dependency).
//
// Analyzers come in two kinds. Package analyzers (Run) see one type-checked
// package at a time and catch syntactic violations where they happen.
// Module analyzers (RunModule) see every package of the module at once,
// plus a call graph with per-function summaries (see Module), and catch
// violations that are invisible per-package: a scoped call site whose
// callee transitively reaches a wall-clock read or the global math/rand
// source through helper packages, a mutex held across a transitively
// blocking call, a cache-key encoder missing a spec field.
//
// Diagnostics can be suppressed with a justification comment either on the
// offending line or the line directly above it:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive with no reason is itself reported, and so is a directive that
// suppresses nothing (analyzer "deadignore"): every suppression must carry
// its weight or be deleted.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer is a single named check. Exactly one of Run (per package) or
// RunModule (once per module, with the call graph) is set; deadignore has
// neither — it is implemented by the driver after suppression matching.
type Analyzer struct {
	Name string
	Doc  string
	// Run, when set, is invoked once per type-checked package.
	Run func(*Pass)
	// RunModule, when set, is invoked once with every loaded package and
	// the module call graph.
	RunModule func(*ModulePass)
}

// Diagnostic is one finding, addressed by file position. Path, when
// non-empty, is the call chain from the reported site to the offending
// sink (taint-mode detrand/walltime, transitive lockheld): downstream
// tooling gets it as structured JSON, humans get it appended to Message.
type Diagnostic struct {
	File     string     `json:"file"`
	Line     int        `json:"line"`
	Col      int        `json:"col"`
	Analyzer string     `json:"analyzer"`
	Message  string     `json:"message"`
	Path     []PathStep `json:"path,omitempty"`
}

// PathStep is one frame of a taint or blocking call chain: the function
// containing the call (or the sink operation itself for the final step)
// and the position of the call/sink.
type PathStep struct {
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings deterministically: by file, line, column,
// analyzer name, then message. The driver's output must be byte-identical
// across runs and machines for the CI gate and golden tests to hold.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// positionStep renders a position and function label as a PathStep.
func positionStep(fset *token.FileSet, fn string, pos token.Pos) PathStep {
	p := fset.Position(pos)
	return PathStep{Func: fn, File: p.Filename, Line: p.Line, Col: p.Column}
}

// renderPath appends a human-readable call chain to a message.
func renderPath(msg string, path []PathStep) string {
	if len(path) == 0 {
		return msg
	}
	out := msg + " [path:"
	for i, s := range path {
		if i > 0 {
			out += " →"
		}
		out += fmt.Sprintf(" %s (%s:%d)", s.Func, s.File, s.Line)
	}
	return out + "]"
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeadIgnore,
		AnalyzerDetRand,
		AnalyzerFloatEq,
		AnalyzerLockHeld,
		AnalyzerMapOrder,
		AnalyzerPktLife,
		AnalyzerSeedIdent,
		AnalyzerWalltime,
	}
}

// ByName resolves an analyzer by its name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
