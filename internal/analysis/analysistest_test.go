package analysis

// This file is the suite's miniature analysistest: it loads fixture
// packages from testdata/src/<import-path>, typechecks them (standard
// library via the source importer, module packages via the stub tree
// under testdata/src/p2pltr/...), runs one analyzer, and matches its
// diagnostics against `// want `+"`regexp`"+` comments — the same
// contract as golang.org/x/tools/go/analysis/analysistest, rebuilt on
// the standard library because this module carries no dependencies.
//
// Conventions:
//   - a `// want `+"`re`"+`` comment names one diagnostic expected on its
//     line (several backquoted regexps may follow one want);
//   - every diagnostic must be matched by a want and every want must
//     match a diagnostic, or the test fails with a position-sorted diff;
//   - fixture packages under excluded paths (p2pltr/internal/vclock/...)
//     carry no wants and assert the exclusion produces zero diagnostics.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader resolves fixture import paths: "p2pltr/..." from
// testdata/src, everything else from the standard library source.
type fixtureLoader struct {
	mu   sync.Mutex
	dir  string
	fset *token.FileSet
	pkgs map[string]*fixturePkg
	std  types.Importer
}

type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

var (
	loaderOnce sync.Once
	loader     *fixtureLoader
)

// sharedLoader returns the process-wide loader: the standard-library
// source importer is expensive to warm up, so all fixture tests share
// one cache.
func sharedLoader() *fixtureLoader {
	loaderOnce.Do(func() {
		fset := token.NewFileSet()
		loader = &fixtureLoader{
			dir:  filepath.Join("testdata", "src"),
			fset: fset,
			pkgs: make(map[string]*fixturePkg),
			std:  importer.ForCompiler(fset, "source", nil),
		}
	})
	return loader
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if strings.HasPrefix(path, ModulePath+"/") {
		fp := l.load(path)
		return fp.pkg, fp.err
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) load(path string) *fixturePkg {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loadLocked(path)
}

func (l *fixtureLoader) loadLocked(path string) *fixturePkg {
	if fp, ok := l.pkgs[path]; ok {
		return fp
	}
	fp := &fixturePkg{}
	l.pkgs[path] = fp

	dir := filepath.Join(l.dir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		fp.err = fmt.Errorf("fixture package %s: %v", path, err)
		return fp
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fp.err = err
			return fp
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		fp.err = fmt.Errorf("fixture package %s: no .go files in %s", path, dir)
		return fp
	}
	info := newTypesInfo()
	cfg := &types.Config{Importer: l}
	// The loader lock is held across Check, which re-enters Import for
	// "p2pltr/..." dependencies: loadLocked recursion keeps that single
	// threaded (fixture imports form a DAG, never a cycle).
	cfg.Importer = importerFunc(func(p string) (*types.Package, error) {
		if strings.HasPrefix(p, ModulePath+"/") {
			dep := l.loadLocked(p)
			return dep.pkg, dep.err
		}
		return l.std.Import(p)
	})
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		fp.err = fmt.Errorf("typechecking fixture %s: %v", path, err)
		return fp
	}
	fp.pkg, fp.files, fp.info = pkg, files, info
	return fp
}

// A wantExpectation is one `// want` regexp with its anchor position.
type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("want((?:\\s+`[^`]+`)+)")
var wantArgRE = regexp.MustCompile("`([^`]+)`")

// collectWants extracts the expectations from every comment in files.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, arg[1], err)
					}
					wants = append(wants, &wantExpectation{
						file: pos.Filename, line: pos.Line, re: re, raw: arg[1],
					})
				}
			}
		}
	}
	return wants
}

// runFixture analyzes the fixture package at path with a and matches
// diagnostics against the package's want comments.
func runFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	l := sharedLoader()
	fp := l.load(path)
	if fp.err != nil {
		t.Fatal(fp.err)
	}
	type diag struct {
		pos     token.Position
		msg     string
		matched bool
	}
	var got []*diag
	pass := &Pass{
		Analyzer:  a,
		Fset:      l.fset,
		Files:     fp.files,
		Pkg:       fp.pkg,
		TypesInfo: fp.info,
	}
	pass.Report = func(d Diagnostic) {
		got = append(got, &diag{pos: l.fset.Position(d.Pos), msg: d.Message})
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].pos.Line != got[j].pos.Line {
			return got[i].pos.Line < got[j].pos.Line
		}
		return got[i].pos.Column < got[j].pos.Column
	})
	wants := collectWants(t, l.fset, fp.files)
	for _, w := range wants {
		for _, d := range got {
			if !d.matched && d.pos.Filename == w.file && d.pos.Line == w.line && w.re.MatchString(d.msg) {
				d.matched, w.matched = true, true
				break
			}
		}
	}
	for _, d := range got {
		if !d.matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.pos, d.msg)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching `%s`", w.file, w.line, w.raw)
		}
	}
}

func TestWallclockFixtures(t *testing.T) {
	runFixture(t, WallclockAnalyzer, "p2pltr/internal/wcfix")
	runFixture(t, WallclockAnalyzer, "p2pltr/internal/wcdot")
}

// TestWallclockExcludedPackage asserts the package exclusion list: the
// same constructs that fire in wcfix produce nothing under an excluded
// path (the fixture file carries no wants).
func TestWallclockExcludedPackage(t *testing.T) {
	runFixture(t, WallclockAnalyzer, "p2pltr/internal/vclock/wcexempt")
}

func TestLockparkFixtures(t *testing.T) {
	runFixture(t, LockparkAnalyzer, "p2pltr/internal/lpfix")
}

func TestMapiterFixtures(t *testing.T) {
	runFixture(t, MapiterAnalyzer, "p2pltr/internal/mifix")
}

func TestRawgoFixtures(t *testing.T) {
	runFixture(t, RawgoAnalyzer, "p2pltr/internal/rgfix")
}

func TestGlobalrandFixtures(t *testing.T) {
	runFixture(t, GlobalrandAnalyzer, "p2pltr/internal/grfix")
}

// TestInstrumented pins the instrumentation predicate itself: the
// boundary between checked and exempt code is part of the contract.
func TestInstrumented(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{ModulePath + "/internal/core", true},
		{ModulePath + "/internal/dht", true},
		// The flight recorder claims determinism for its event streams,
		// so it must sit inside the vetted set.
		{ModulePath + "/internal/flightrec", true},
		{ModulePath + "/internal/trace", true},
		{ModulePath + "/cmd/p2pltr-sim", true},
		{ModulePath + "/cmd/p2pltr-node", false},
		{ModulePath + "/internal/vclock", false},
		{ModulePath + "/internal/ringtest", true},
		{ModulePath + "/internal/ringtest/sub", true},
		{"other/module", false},
	}
	for _, c := range cases {
		if got := Instrumented(c.path); got != c.want {
			t.Errorf("Instrumented(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
