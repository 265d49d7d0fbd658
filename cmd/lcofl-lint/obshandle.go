package main

// obshandle: obs.Registry / obs.Obs handle lookups (Counter, Gauge,
// Histogram) are a map access behind a mutex, so they may not sit on
// hot paths. PR 4 established the discipline by convention — resolve
// every handle once at construction, store it, and touch only the
// atomic in steady state — and this analyzer makes it machine-checked:
//
//   - a lookup inside a loop (any CFG block that lies on a cycle) is a
//     finding, as is a lookup anywhere inside a function literal that
//     is itself defined in a loop (the literal runs per iteration or
//     per event);
//   - a lookup whose result is consumed immediately
//     (o.Counter("x", twin).Inc()) is a finding even outside loops: the
//     handle is discarded, so every call re-pays the lookup.
//
// internal/obs itself is exempt (it implements the lookups), as are
// the cmd/ entry points, which resolve handles only at startup and
// exit.

import (
	"go/ast"
	"go/token"
	"strings"
)

// defaultObsHandlePkgs lists the instrumented packages whose steady
// state must not re-resolve handles.
func defaultObsHandlePkgs() map[string]bool {
	return map[string]bool{
		"repro/internal/node":        true,
		"repro/internal/chaos":       true,
		"repro/internal/core":        true,
		"repro/internal/fl":          true,
		"repro/internal/lagrange":    true,
		"repro/internal/reedsolomon": true,
		"repro/internal/transport":   true,
		"repro/internal/experiments": true,
	}
}

func newObsHandleAnalyzer(pkgs map[string]bool) *Analyzer {
	return &Analyzer{
		Name: "obshandle",
		Doc:  "obs Counter/Gauge/Histogram lookups must happen once at construction, never in loops or chained per call",
		Run:  func(p *Pass) error { return runObsHandle(p, pkgs) },
	}
}

func runObsHandle(p *Pass, pkgs map[string]bool) error {
	if !pkgs[p.Pkg.Path] {
		return nil
	}
	reported := map[token.Pos]bool{}
	for _, f := range p.Pkg.Files {
		for _, fb := range collectFuncBodies(f) {
			checkObsBody(p, fb.body, reported)
		}
	}
	return nil
}

// isObsLookup reports whether ce resolves a handle on an obs.Obs or
// obs.Registry receiver.
func isObsLookup(p *Pass, ce *ast.CallExpr) bool {
	sel, ok := ce.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
	default:
		return false
	}
	t := p.TypeOf(sel.X)
	if t == nil {
		return false
	}
	s := strings.TrimPrefix(t.String(), "*")
	return strings.HasSuffix(s, "internal/obs.Obs") || strings.HasSuffix(s, "internal/obs.Registry")
}

func checkObsBody(p *Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	c := buildCFG(body)
	cyclic := c.inCycle()
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		p.Reportf(pos, format, args...)
	}
	for _, b := range c.reachable() {
		inLoop := cyclic[b.index]
		for _, n := range b.nodes {
			walkNode(n, func(n ast.Node, stack []ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					// A literal defined in a loop runs per iteration:
					// every lookup inside it pays per iteration too.
					if inLoop {
						ast.Inspect(n.Body, func(in ast.Node) bool {
							if ce, ok := in.(*ast.CallExpr); ok && isObsLookup(p, ce) {
								report(ce.Pos(), "obs handle lookup inside a function literal defined in a loop; resolve the handle once at construction")
							}
							return true
						})
					}
				case *ast.CallExpr:
					if !isObsLookup(p, n) {
						return true
					}
					if inLoop {
						report(n.Pos(), "obs handle lookup inside a loop; resolve the handle once at construction and store it")
						return true
					}
					// Chained immediate use: the parent consumes the
					// call result through a selector, so the handle is
					// discarded after one use.
					if len(stack) > 0 {
						if ps, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && ps.X == ast.Expr(n) {
							report(n.Pos(), "obs handle lookup chained into a method call; resolve the handle once at construction and store it")
						}
					}
				}
				return true
			})
		}
	}
}
