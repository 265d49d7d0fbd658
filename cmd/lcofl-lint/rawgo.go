package main

import "go/ast"

// newRawGoAnalyzer forbids bare `go` statements outside the packages that
// own concurrency. A bare goroutine silently swallows errors and panics
// (a panic in it kills the whole process with no caller in the stack) and
// makes results scheduling-dependent; the repo's parallel hot paths must
// instead run through internal/parallel (ForEach for indexed work,
// Group for free-form tasks), which propagates the lowest-index error and
// re-raises worker panics in the caller. allowed lists the package paths
// exempt from the rule — the pool itself plus the packages whose
// goroutines ARE the abstraction (connection serving).
//
// Test files are exempt by construction: lcofl-lint analyzes only the
// non-test files of each package.
func newRawGoAnalyzer(allowed map[string]bool) *Analyzer {
	return &Analyzer{
		Name: "rawgo",
		Doc: "forbid bare go statements outside internal/parallel and the transport/node " +
			"layers; concurrency must run through the parallel worker pool",
		Run: func(pass *Pass) error {
			if allowed[pass.Pkg.Path] {
				return nil
			}
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						pass.Reportf(g.Pos(), "bare go statement in %s; use parallel.ForEach for indexed work or parallel.Group for free-form tasks so errors and panics propagate", pass.Pkg.Path)
					}
					return true
				})
			}
			return nil
		},
	}
}

// defaultRawGoAllowed lists the packages allowed to start goroutines
// directly: the worker pool itself, the networking layers whose
// goroutine-per-connection structure is the point, and the debug server
// whose accept loop runs for the life of the process (net/http's serving
// model — there is nothing to join it to).
func defaultRawGoAllowed() map[string]bool {
	return map[string]bool{
		"repro/internal/parallel":   true,
		"repro/internal/transport":  true,
		"repro/internal/node":       true,
		"repro/internal/obs/debugz": true,
	}
}
