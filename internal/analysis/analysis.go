// Package analysis is a small static-analysis framework plus the custom
// analyzers that turn this repository's determinism and lifecycle
// invariants into machine-checked law. It deliberately mirrors the
// golang.org/x/tools go/analysis API (Analyzer, Pass, Diagnostic) so the
// analyzers can be ported to the upstream multichecker verbatim if the
// dependency ever becomes available; the module itself is dependency-free,
// so the framework is built on the standard library only: packages are
// loaded with `go list -export` and type-checked against compiler export
// data.
//
// The determinism suite:
//
//   - mapiter:   flags `range` over a map in simulation/routing packages.
//     Go randomizes map iteration per run, so any map range that feeds an
//     order-sensitive sink (event scheduling, FIB install order, trace
//     output) silently breaks bit-for-bit reproducibility. Iterate
//     detsort.Keys/KeysFunc instead, or annotate the loop with
//     `//f2tree:unordered <reason>` when its effect is provably
//     order-insensitive.
//
//   - simclock:  forbids wall-clock reads (time.Now, time.Since, ...) and
//     global math/rand state in simulation packages. All time must come
//     from the virtual clock (sim.Simulator.Now) and all randomness from
//     the seeded per-run RNG (sim.Simulator.Rand).
//
//   - lockcheck: flags mutable package-level state in simulation packages —
//     anything written after initialization would race under a future
//     parallel-replica runner. State belongs on the engine or instance;
//     `//f2tree:sharedstate <reason>` is the audited escape hatch.
//
// The contract/lifecycle suite machine-checks the object-pool, hot-path
// and cache-epoch contracts the zero-allocation core introduced:
//
//   - poolcheck:    a pooled value (network.Packet, the netEvent in-flight
//     records, sim's heap items — any type marked `//f2tree:pooled`)
//     received by a callback must not be retained past the call. Stores
//     into fields, slices, maps, closures or channels are flagged unless
//     the line carries `//f2tree:retained <reason>` — the audited
//     ownership-transfer points.
//
//   - hotpathalloc: functions marked `//f2tree:hotpath` must stay
//     allocation-free in steady state: no closure creation, no interface
//     boxing of non-pointer values, no append without a preallocated
//     capacity, no string concatenation, no calls to same-package
//     allocating helpers that are not themselves hotpath. The audited
//     escape hatch (amortized growth, cold paths) is
//     `//f2tree:alloc <reason>`.
//
//   - epochcheck:   every mutation of an `//f2tree:epochguarded` field
//     (fib route state, network port-usability state) must be followed by
//     an epoch bump — `//f2tree:epoch` field increment or an
//     InvalidateFlowCache / `//f2tree:epochbump` call — on every return
//     path, checked by intraprocedural dataflow. Escape hatch:
//     `//f2tree:noepoch <reason>`.
//
//   - handlecheck:  a sim.Handle must not be used after it was passed to
//     Cancel (reassignment revives it) and must not cross a goroutine
//     boundary. Escape hatch: `//f2tree:handle <reason>`.
//
// The driver (RunGraph) applies every analyzer to one package at a time in
// dependency order, handing each pass the facts its dependencies exported,
// in a single sequential pass with no result cache: a run depends only on
// the source it reads.
//
// Concurrency is not gated here. The few goroutines in live code
// (serve, the campaign worker pool, the f2tree-serve bench) are checked
// dynamically instead: `go test -race`, testutil.VerifyNoLeaks in their
// tests, and `make stress`.
//
// Suppression directives are themselves audited: the Audit entry point
// inventories every `//f2tree:` directive and reports suppressions whose
// line no longer triggers the analyzer they silence (stale suppressions),
// so annotations cannot outlive the code they were written for.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and types to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report receives each diagnostic as it is found.
	Report func(Diagnostic)
	// KeepSuppressed makes ReportSuppressible emit findings covered by a
	// directive too, marked Suppressed — the audit mode that lets the
	// driver prove a directive still silences something.
	KeepSuppressed bool

	// dirs caches each file's directive lines.
	dirs map[*ast.File]map[int][]string

	// ImportedFacts holds the facts exported by the package's (transitive)
	// dependencies, keyed by symbol. Nil when the pass runs outside the
	// graph driver (single-package fixture tests); analyzers must treat nil
	// as "no facts".
	ImportedFacts FactSet
	// ExportFact records a fact about a package-level symbol so downstream
	// packages can consume it. Nil outside the graph driver.
	ExportFact func(obj types.Object, kind string)
}

// fileFor returns the pass file whose source range contains pos, or nil.
func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// Verb is the suppression-directive verb that can silence this finding
	// ("unordered", "retained", ...); empty for unsuppressible findings.
	Verb string
	// Suppressed marks a finding covered by a directive, reported only in
	// KeepSuppressed (audit) mode.
	Suppressed bool
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// fileDirectives returns file's directive-line index, cached per pass.
func (p *Pass) fileDirectives(file *ast.File) map[int][]string {
	if d, ok := p.dirs[file]; ok {
		return d
	}
	if p.dirs == nil {
		p.dirs = make(map[*ast.File]map[int][]string)
	}
	d := directiveLines(p.Fset, file)
	p.dirs[file] = d
	return d
}

// ReportSuppressible reports a finding that `//f2tree:<verb> <reason>` can
// silence. A covered finding is dropped, unless the pass runs in
// KeepSuppressed (audit) mode, where it is emitted with Suppressed set so
// the auditor can tell live directives from stale ones.
func (p *Pass) ReportSuppressible(file *ast.File, pos token.Pos, verb, format string, args ...any) {
	d := Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
		Verb:     verb,
	}
	if suppressed(p.fileDirectives(file), p.Fset, pos, verb) {
		if !p.KeepSuppressed {
			return
		}
		d.Suppressed = true
	}
	p.Report(d)
}

// marked reports whether a `//f2tree:<verb>` marker directive covers the
// node at pos (same placement rule as suppressions: the node's line or the
// line above, so a marker can end a doc comment).
func (p *Pass) marked(file *ast.File, pos token.Pos, verb string) bool {
	return suppressed(p.fileDirectives(file), p.Fset, pos, verb)
}

// directivePrefix introduces all in-source analyzer directives.
const directivePrefix = "f2tree:"

// directiveLines collects, per line, the f2tree directives of a file
// ("unordered", "sharedstate", ...) mapped from the line on which each
// comment ends. A line may carry more than one directive (a marker plus a
// suppression, or two suppressions silencing different analyzers), so each
// line maps to the list of its directives in source order. A directive
// suppresses a finding on its own line or the line immediately below, so
// both trailing comments and comments on the preceding line work:
//
//	//f2tree:unordered set union; content is order-independent
//	for k := range m { ... }
func directiveLines(fset *token.FileSet, file *ast.File) map[int][]string {
	out := make(map[int][]string)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			line := fset.Position(c.End()).Line
			out[line] = append(out[line], strings.TrimPrefix(text, directivePrefix))
		}
	}
	return out
}

// suppressed reports whether a directive with the given verb ("unordered",
// "sharedstate") covers the node starting at pos.
func suppressed(dirs map[int][]string, fset *token.FileSet, pos token.Pos, verb string) bool {
	line := fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		for _, d := range dirs[l] {
			if d == verb || strings.HasPrefix(d, verb+" ") {
				return true
			}
		}
	}
	return false
}

// rootIdent walks an lvalue expression (x, x.f, x[i], *x, x.f[i].g, (x))
// down to its root identifier, or nil if the expression is not rooted in
// one (e.g. a function call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its object, whether it defines or
// uses it (:= vs =).
func objectOf(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// isBuiltin reports whether the identifier resolves to a builtin.
func isBuiltin(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// lvalueLabel renders a short label for a store target.
func lvalueLabel(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if root := rootIdent(x); root != nil {
			return "field " + root.Name + "." + x.Sel.Name
		}
		return "a field"
	case *ast.IndexExpr:
		if root := rootIdent(x); root != nil {
			return "element of " + root.Name
		}
		return "a slice/map element"
	case *ast.StarExpr:
		return "a dereferenced pointer"
	}
	return "a non-local location"
}
