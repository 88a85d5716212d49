package analysis

import (
	"go/ast"
	"go/types"
)

// GlobalrandAnalyzer enforces the seeded-randomness invariant: in
// instrumented packages every random draw must come from an explicitly
// seeded *rand.Rand (ultimately derived from the experiment plan seed),
// never the global math/rand source.
//
// The global source is seeded per process (and shared across
// goroutines), so any draw from it differs between two same-seed runs —
// exactly the nondeterminism the seeded plan campaigns exist to rule
// out. Constructors (rand.New, rand.NewSource, and the
// math/rand/v2 PCG/ChaCha8 sources) are allowed: they are how the
// seeded streams are built.
//
// Escape hatch: // lint:allow-globalrand on (or directly above) the
// line, with a comment saying why unseeded randomness is safe.
var GlobalrandAnalyzer = &Analyzer{
	Name: "globalrand",
	Doc: "global/unseeded math/rand use where randomness must derive from the plan seed\n\n" +
		"Flags package-level math/rand and math/rand/v2 draws (rand.Intn,\n" +
		"rand.Shuffle, ...); build a seeded stream with rand.New(rand.NewSource(seed)).\n" +
		"Escape hatch: // lint:allow-globalrand",
	Run: runGlobalrand,
}

// globalrandAllowed are the package-level functions of math/rand and
// math/rand/v2 that do NOT draw from the global source.
var globalrandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runGlobalrand(pass *Pass) error {
	for _, f := range pass.instrumentedFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			path := pkgPathOf(fn)
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			// Methods on *rand.Rand / rand.Source are the seeded API.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if globalrandAllowed[fn.Name()] {
				return true
			}
			if pass.Allowed(id.Pos(), "lint:allow-globalrand") {
				return true
			}
			pass.Reportf(id.Pos(),
				"global math/rand draw rand.%s in an instrumented package: randomness must derive from the plan seed — draw from a rand.New(rand.NewSource(seed)) stream, or tag // lint:allow-globalrand with why unseeded randomness is safe",
				fn.Name())
			return true
		})
	}
	return nil
}
