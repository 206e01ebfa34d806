package analysis

import "fmt"

// RunResult is the outcome of one audit: the surviving diagnostics and the
// suppressions that earned their keep.
type RunResult struct {
	Diagnostics []Diagnostic
	// Suppressions are the live lint:ignore directives — each one matched
	// at least one finding this run. `wehey-lint -ignores` lists them.
	Suppressions []Suppression
	// Module is the call graph built for the run (nil when no module
	// analyzer was enabled); `wehey-lint -graph` and `-why` read it.
	Module *Module
}

// Run loads every package matching patterns under dir, runs the analyzers,
// applies lint:ignore suppression, and returns the surviving diagnostics in
// deterministic sorted order.
func Run(dir string, patterns []string, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, error) {
	res, err := RunAudit(dir, patterns, analyzers, cfg)
	if err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// RunAudit is Run plus the suppression audit: when the deadignore analyzer
// is enabled it additionally reports dead lint:ignore directives, and it
// returns the live ones.
func RunAudit(dir string, patterns []string, analyzers []*Analyzer, cfg *Config) (*RunResult, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}

	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }

	// Directives across every loaded file; malformed ones are findings that
	// cannot be suppressed away.
	var directives []ignoreDirective
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			directives = append(directives, parseIgnores(pkg.Fset, f, func(d Diagnostic) {
				malformed = append(malformed, d)
			})...)
		}
	}

	var module *Module
	needModule := false
	for _, a := range analyzers {
		if a.RunModule != nil {
			needModule = true
		}
	}
	if needModule && len(pkgs) > 0 {
		module = BuildModule(pkgs[0].Fset, pkgs)
	}

	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				a.Run(&Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Files:    pkg.Files,
					Pkg:      pkg.Pkg,
					Info:     pkg.Info,
					RelPath:  pkg.RelPath,
					Config:   cfg,
					report:   collect,
				})
			}
		}
		if a.RunModule != nil && module != nil {
			a.RunModule(&ModulePass{
				Analyzer: a,
				Module:   module,
				Config:   cfg,
				report:   collect,
			})
		}
	}

	res := &RunResult{Module: module}
	res.Diagnostics = append(res.Diagnostics, malformed...)
	res.Diagnostics = append(res.Diagnostics, applySuppression(raw, directives, analyzers)...)
	sortDiagnostics(res.Diagnostics)
	res.Suppressions = liveSuppressions(directives)
	sortSuppressions(res.Suppressions)
	return res, nil
}

// RunPackage fans the analyzers out over one loaded package — the fixture
// harness's entry point. Module analyzers run against a single-package
// module so their fixtures stay one file. Dead directives are not reported
// here: a single-analyzer fixture run must not condemn other analyzers'
// directives, and fixtures pin dead-directive behaviour through RunAudit.
func RunPackage(pkg *Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }

	var directives []ignoreDirective
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		directives = append(directives, parseIgnores(pkg.Fset, f, func(d Diagnostic) {
			malformed = append(malformed, d)
		})...)
	}

	var module *Module
	for _, a := range analyzers {
		if a.RunModule != nil && module == nil {
			module = BuildModule(pkg.Fset, []*Package{pkg})
		}
	}

	for _, a := range analyzers {
		if a.Run != nil {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				RelPath:  pkg.RelPath,
				Config:   cfg,
				report:   collect,
			})
		}
		if a.RunModule != nil && module != nil {
			a.RunModule(&ModulePass{
				Analyzer: a,
				Module:   module,
				Config:   cfg,
				report:   collect,
			})
		}
	}

	out := malformed
	out = append(out, filterSuppressed(raw, directives)...)
	sortDiagnostics(out)
	return out
}

// filterSuppressed drops diagnostics covered by a directive, marking the
// directive used.
func filterSuppressed(raw []Diagnostic, directives []ignoreDirective) []Diagnostic {
	var out []Diagnostic
	for _, d := range raw {
		matched := false
		for i := range directives {
			if directives[i].suppresses(&d) {
				directives[i].used = true
				matched = true
			}
		}
		if !matched {
			out = append(out, d)
		}
	}
	return out
}

// applySuppression is filterSuppressed plus the dead-directive audit. A
// directive is dead when it names an analyzer the registry does not know
// (stale tooling baggage), or when the named analyzer was enabled this run
// and the directive matched nothing. Dead-directive findings can themselves
// be suppressed — `//lint:ignore deadignore <reason>` — for directives kept
// deliberately (e.g. fixtures demonstrating suppression), and a deadignore
// directive that excuses nothing is reported in turn.
func applySuppression(raw []Diagnostic, directives []ignoreDirective, analyzers []*Analyzer) []Diagnostic {
	out := filterSuppressed(raw, directives)

	deadEnabled := false
	enabled := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = true
		if a.Name == AnalyzerDeadIgnore.Name {
			deadEnabled = true
		}
	}
	if !deadEnabled {
		return out
	}

	var dead []Diagnostic
	for i := range directives {
		dir := &directives[i]
		if dir.used || dir.analyzer == AnalyzerDeadIgnore.Name {
			continue
		}
		known := ByName(dir.analyzer) != nil
		switch {
		case !known:
			dead = append(dead, Diagnostic{
				File: dir.file, Line: dir.line, Col: dir.col,
				Analyzer: AnalyzerDeadIgnore.Name,
				Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q; delete the directive (keep the reason as a plain comment if it still informs)", dir.analyzer),
			})
		case enabled[dir.analyzer]:
			dead = append(dead, Diagnostic{
				File: dir.file, Line: dir.line, Col: dir.col,
				Analyzer: AnalyzerDeadIgnore.Name,
				Message:  fmt.Sprintf("lint:ignore %s suppresses nothing; the finding it excused is gone — delete the directive", dir.analyzer),
			})
		}
		// Known but not enabled this run: no verdict either way.
	}

	// Second round: deadignore directives may suppress the audit findings,
	// and any deadignore directive that itself suppresses nothing is dead.
	dead = filterSuppressed(dead, directives)
	for i := range directives {
		dir := &directives[i]
		if dir.analyzer != AnalyzerDeadIgnore.Name || dir.used {
			continue
		}
		dead = append(dead, Diagnostic{
			File: dir.file, Line: dir.line, Col: dir.col,
			Analyzer: AnalyzerDeadIgnore.Name,
			Message:  "lint:ignore deadignore suppresses nothing; delete the directive",
		})
	}
	return append(out, dead...)
}

// liveSuppressions lists the directives that matched at least one finding.
func liveSuppressions(directives []ignoreDirective) []Suppression {
	var out []Suppression
	for i := range directives {
		if directives[i].used {
			out = append(out, Suppression{
				File:     directives[i].file,
				Line:     directives[i].line,
				Analyzer: directives[i].analyzer,
				Reason:   directives[i].reason,
			})
		}
	}
	return out
}

func sortSuppressions(s []Suppression) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			a, b := s[j-1], s[j]
			if a.File < b.File || (a.File == b.File && a.Line <= b.Line) {
				break
			}
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
