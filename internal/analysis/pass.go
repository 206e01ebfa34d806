package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Pass carries one type-checked package into a package analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// RelPath is the package's import path relative to the module root
	// ("" for the root package, "internal/netsim", "cmd/wehey-lint", ...).
	// Scope and allowlist decisions match against it.
	RelPath string
	Config  *Config

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos. Suppression and sorting are handled
// by the driver, not the analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// walkFiles applies fn to every node of every file in the pass.
func (p *Pass) walkFiles(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// ModulePass carries the whole loaded module — every package plus the call
// graph — into a module analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module
	Config   *Config

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos (resolved through the module fileset).
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	mp.ReportPath(pos, nil, format, args...)
}

// ReportPath records a diagnostic carrying a call chain. The path is
// appended to the human-readable message and preserved structurally for
// JSON output.
func (mp *ModulePass) ReportPath(pos token.Pos, path []PathStep, format string, args ...any) {
	position := mp.Module.Fset.Position(pos)
	mp.report(Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: mp.Analyzer.Name,
		Message:  renderPath(fmt.Sprintf(format, args...), path),
		Path:     path,
	})
}
