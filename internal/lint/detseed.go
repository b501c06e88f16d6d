package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetSeed enforces reproducible seeding in the packages whose output
// must be bit-for-bit deterministic for a fixed seed: the hash-family
// and sketch packages (the skimmed-sketch estimate is only comparable
// across processes if every ξ family derives from the serialized
// seed), and the workload/sampling generators (experiments and the
// golden-stream regression tests pin their exact byte output).
//
// Three classes of nondeterminism are flagged:
//
//  1. top-level math/rand (and math/rand/v2) functions, which draw
//     from the global, externally seedable source — randomness must
//     come through an injected *rand.Rand or an explicit seed;
//  2. time.Now and time.Since, which leak wall-clock state into
//     results;
//  3. ranging over a map with order-dependent effects in the loop
//     body (appending to a slice, sending on a channel, printing, or
//     breaking/returning early) — map iteration order is randomized
//     per run, so such loops must iterate a sorted key slice instead.
//     Commutative aggregation (sums, counter updates, map writes) is
//     not flagged, and neither is the canonical fix: appending keys
//     to a slice that the same function then passes to sort/slices.
var DetSeed = &Analyzer{
	Name: "detseed",
	Doc:  "forbids global math/rand, wall-clock reads and order-dependent map iteration in deterministic packages",
	Run:  runDetSeed,
}

// deterministicPackages names the packages (by package name) whose
// results must be reproducible for a fixed seed.
var deterministicPackages = map[string]bool{
	"hashfam":  true,
	"core":     true,
	"agms":     true,
	"dyadic":   true,
	"workload": true,
	"sampling": true,
}

// allowedGlobalRand are math/rand top-level functions that construct
// or parameterize explicit sources rather than drawing from the
// global one.
var allowedGlobalRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes an explicit *Rand
	"NewPCG":    true, // math/rand/v2
	"NewChaCha8": true,
}

func runDetSeed(pass *Pass) {
	if !deterministicPackages[pass.Pkg.Name()] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkDetCall(pass, call)
			}
			return true
		})
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok {
					checkMapRange(pass, rng, fd.Body)
				}
				return true
			})
		}
	}
}

func checkDetCall(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods on an injected *rand.Rand are the fix, not the bug
	}
	switch f.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !allowedGlobalRand[f.Name()] {
			pass.Reportf(call.Pos(), "deterministic package %s draws from the global math/rand source via rand.%s; inject a *rand.Rand seeded from the sketch seed instead", pass.Pkg.Name(), f.Name())
		}
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			pass.Reportf(call.Pos(), "deterministic package %s reads the wall clock via time.%s; results must depend only on inputs and the seed", pass.Pkg.Name(), f.Name())
		}
	}
}

func checkMapRange(pass *Pass, rng *ast.RangeStmt, enclosing *ast.BlockStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	reason, appended := orderDependent(pass, rng.Body)
	if reason == "" {
		return
	}
	if reason == "append" && appended != nil && sortedInFunc(pass, enclosing, appended) {
		return // the canonical fix: collect keys, then sort them
	}
	pass.Reportf(rng.Pos(), "map iteration with order-dependent effect (%s) in deterministic package %s; iterate sorted keys instead", reason, pass.Pkg.Name())
}

// orderDependent reports why a map-range body's result could depend on
// iteration order ("" if it only performs commutative aggregation),
// and, for appends, the slice variable appended to.
func orderDependent(pass *Pass, body *ast.BlockStmt) (reason string, appended types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					reason = "append"
					if len(n.Args) > 0 {
						if dst, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
							appended = pass.Info.Uses[dst]
						}
					}
					return false
				}
			}
			if f := calleeFunc(pass.Info, n); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
				reason = "fmt output"
				return false
			}
		case *ast.SendStmt:
			reason = "channel send"
			return false
		case *ast.BranchStmt:
			// break or goto ends iteration after an order-dependent
			// prefix; continue is order-neutral.
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				reason = "early break"
				return false
			}
		case *ast.ReturnStmt:
			reason = "early return"
			return false
		}
		return true
	})
	return reason, appended
}

// sortedInFunc reports whether the function body passes the given
// slice variable to a sort/slices function, which makes the collection
// order irrelevant.
func sortedInFunc(pass *Pass, body *ast.BlockStmt, slice types.Object) bool {
	if body == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		if p := f.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			found := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.Info.Uses[id] == slice {
					found = true
					return false
				}
				return true
			})
			if found {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}
