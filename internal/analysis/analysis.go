// Package analysis is the determinism-invariant analyzer suite: five
// static checks that mechanize the hand audits which keep this stack
// bitwise-reproducible under vclock.Virtual. Every scale result in the
// repo (chord's scale tests, the plan campaigns, the benchmark) depends on
// same-seed runs replaying identically; the invariants below were
// previously enforced by a grep script and one-off manual audits, and
// each has a real regression behind it:
//
//   - wallclock:  no direct time.Now/Sleep/... outside the vclock seam
//     (a stray OS-clock read is invisible on real time and a
//     determinism divergence under virtual time — the rule the old
//     scripts/lint-wallclock.sh grep enforced).
//   - lockpark:   no sync.Mutex/RWMutex held across a call that can
//     park the virtual timeline (the PR 5 hand audit: a parked holder
//     freezes every goroutine queued on the lock, deadlocking or
//     reordering the schedule).
//   - mapiter:    no order-dependent effects inside a range over a map
//     in deterministic packages (PR 4 hand-fixed unsorted
//     kts.KeyStates iteration that diverged same-seed runs).
//   - rawgo:      goroutines in instrumented packages spawn through
//     clock.Go/Gather, never bare `go` or WaitGroup.Wait (PR 5: a
//     plain wg.Wait froze the virtual timeline; Block's reattach
//     raced the last worker's exit and broke determinism).
//   - globalrand: randomness derives from the plan seed, never the
//     global math/rand source.
//
// The suite is a miniature golang.org/x/tools/go/analysis: the same
// Analyzer/Pass shape, driven either by the `go vet -vettool` unit
// protocol (cmd/p2pltr-vet, see unitchecker.go) or by the testdata
// fixture runner in analysistest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named determinism check. It mirrors the x/tools
// go/analysis Analyzer contract so the passes could migrate to the real
// framework wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the
	// p2pltr-vet command line.
	Name string
	// Doc explains the invariant, its rationale and its escape hatch.
	// The first line is the summary shown by -flags.
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, parsed with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records type and object resolution for the files.
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)

	escapes map[*ast.File]*escapeIndex
	// sortHelpers memoizes mapiter's same-package sort-helper analysis:
	// the parameter index the function visibly sorts, or -1.
	sortHelpers map[*types.Func]int
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ModulePath is the import-path prefix of this module; the analyzers
// only ever fire inside it.
const ModulePath = "p2pltr"

// excludedPackages are the module packages exempt from every
// determinism analyzer, with the rationale the old grep lint carried:
//
//   - internal/vclock IS the clock seam: its Real implementation wraps
//     time.*, Virtual implements the scheduler with raw goroutines and
//     channels, and vclock.Mutex is the one lock that may legally park.
//
// cmd/ binaries run on the system clock by definition and are outside
// the instrumented set — EXCEPT cmd/p2pltr-sim, which drives
// deterministic simulations and must reach wall time only through the
// vclock seam (simtest measures throughput via vclock.System).
var excludedPackages = []string{
	ModulePath + "/internal/vclock",
}

// Instrumented reports whether the package at path is subject to the
// determinism invariants: every internal package plus cmd/p2pltr-sim,
// minus the exclusions above.
func Instrumented(path string) bool {
	for _, ex := range excludedPackages {
		if path == ex || strings.HasPrefix(path, ex+"/") {
			return false
		}
	}
	if strings.HasPrefix(path, ModulePath+"/internal/") {
		return true
	}
	return path == ModulePath+"/cmd/p2pltr-sim"
}

// instrumentedFiles yields the pass's files that the analyzers should
// inspect: nothing when the package itself is exempt, and never
// _test.go files (tests deliberately drive both real and virtual
// clocks, real goroutines and unordered iteration).
func (p *Pass) instrumentedFiles() []*ast.File {
	if p.Pkg == nil || !Instrumented(p.Pkg.Path()) {
		return nil
	}
	var files []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// escapeIndex records, per comment group of one file, the full group
// text keyed by the group's last line. A group is either an end-of-line
// comment or a contiguous block of comment lines, so indexing by end
// line makes "the comment on or directly above the construct" one map
// probe — and lets a multi-line rationale carry its tag on any line.
type escapeIndex struct {
	byEndLine map[int]string
}

func buildEscapeIndex(fset *token.FileSet, f *ast.File) *escapeIndex {
	idx := &escapeIndex{byEndLine: make(map[int]string)}
	for _, cg := range f.Comments {
		// Raw comment text, not cg.Text(): the latter silently drops
		// directive-shaped lines, and "//lint:tag" (no space) is one.
		end := fset.Position(cg.End()).Line
		for _, c := range cg.List {
			idx.byEndLine[end] += " " + c.Text
		}
	}
	return idx
}

// Allowed reports whether the comment on the line containing pos, or
// the comment block ending on the line directly above it, carries the
// given escape tag (for example "lint:allow-wallclock"). Escape tags
// are the audited exceptions: the comment is expected to say why the
// flagged construct is safe, and a multi-line rationale may carry the
// tag on any of its lines.
func (p *Pass) Allowed(pos token.Pos, tag string) bool {
	file := p.fileFor(pos)
	if file == nil {
		return false
	}
	if p.escapes == nil {
		p.escapes = make(map[*ast.File]*escapeIndex)
	}
	idx := p.escapes[file]
	if idx == nil {
		idx = buildEscapeIndex(p.Fset, file)
		p.escapes[file] = idx
	}
	line := p.Fset.Position(pos).Line
	return strings.Contains(idx.byEndLine[line], tag) ||
		strings.Contains(idx.byEndLine[line-1], tag)
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// funcObj resolves the called function or method of a call expression,
// unwrapping parentheses. It returns nil for builtins, conversions and
// calls of function-typed values.
func (p *Pass) funcObj(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgPathOf returns the import path of the package a function belongs
// to ("" for builtins and universe functions).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// Analyzers returns the full determinism suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		LockparkAnalyzer,
		MapiterAnalyzer,
		RawgoAnalyzer,
		GlobalrandAnalyzer,
	}
}
