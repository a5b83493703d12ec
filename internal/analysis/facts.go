package analysis

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// Fact kinds exported by the analyzers. A fact is a statement about one
// package-level symbol (function, method or type) that downstream packages
// consume, upgrading the intraprocedural analyzers to transitive,
// whole-program checks — the stdlib-only mirror of go/analysis Facts:
//
//   - FactAllocates (hotpathalloc): the function allocates on its steady
//     path, directly or through a callee. A hotpath function calling a
//     fact-carrying function two packages away is a finding.
//   - FactHotPath (hotpathalloc): the function is //f2tree:hotpath and its
//     body is checked in its own package; callers trust it.
//   - FactWallClock (simclock): the function transitively reads the wall
//     clock through an unsuppressed call chain.
//   - FactSharedState (lockcheck): the function writes package-level state
//     ("touches-shared-state" — inventory for the sharding refactor).
//   - FactPooled (poolcheck): the type is //f2tree:pooled, so
//     pointer-to-it parameters are retention-tracked in every package.
//
// FactRetainsPrefix is a parameterized kind: "retains:2" states that the
// function stores its third parameter (a pooled pointer) somewhere that
// outlives the call, so passing a tracked value there is a retention.
const (
	FactAllocates     = "allocates"
	FactHotPath       = "hotpath"
	FactWallClock     = "wallclock"
	FactSharedState   = "sharedstate"
	FactPooled        = "pooled"
	FactRetainsPrefix = "retains:"
)

// RetainsFact returns the parameterized retains fact kind for parameter i.
func RetainsFact(i int) string { return fmt.Sprintf("%s%d", FactRetainsPrefix, i) }

// Fact is one exported statement about a package-level symbol, in the
// serializable form the driver's -json report carries.
type Fact struct {
	// Sym names the symbol: "pkgpath.Func", "pkgpath.(Recv).Method" or
	// "pkgpath.Type" (see SymbolName).
	Sym string `json:"sym"`
	// Kind is one of the Fact* kinds above (or a parameterized retains:N).
	Kind string `json:"kind"`
}

// FactSet indexes facts by symbol for the consuming pass.
type FactSet map[string]map[string]bool

// Add records one fact.
func (fs FactSet) Add(sym, kind string) {
	if fs[sym] == nil {
		fs[sym] = make(map[string]bool)
	}
	fs[sym][kind] = true
}

// Has reports whether the fact (sym, kind) is present.
func (fs FactSet) Has(sym, kind string) bool { return fs[sym][kind] }

// AddAll merges the given facts into the set.
func (fs FactSet) AddAll(facts []Fact) {
	for _, f := range facts {
		fs.Add(f.Sym, f.Kind)
	}
}

// Sorted flattens the set into a deterministic fact list (by symbol, then
// kind) — the serialization order for JSON output.
func (fs FactSet) Sorted() []Fact {
	var out []Fact
	//f2tree:unordered flattened list is sorted below
	for sym, kinds := range fs {
		//f2tree:unordered flattened list is sorted below
		for k := range kinds {
			out = append(out, Fact{Sym: sym, Kind: k})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sym != out[j].Sym {
			return out[i].Sym < out[j].Sym
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// SymbolName returns the stable cross-package name facts are keyed by:
// "pkgpath.Name" for package-level functions, types and vars,
// "pkgpath.(Recv).Name" for methods (pointer receivers dereferenced, so a
// fact about (*T).M and T.M land on the same symbol). Objects without a
// package (builtins, locals) get an empty name and never match a fact.
func SymbolName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			name := rt.String()
			if i := strings.LastIndexByte(name, '.'); i >= 0 {
				name = name[i+1:]
			}
			return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Path(), name, fn.Name())
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// importedFact reports whether the pass's dependency facts contain (obj,
// kind). Safe on a nil fact set and a nil object.
func (p *Pass) importedFact(obj types.Object, kind string) bool {
	if p.ImportedFacts == nil || obj == nil {
		return false
	}
	// A fact is only meaningful for symbols outside the package under
	// analysis: same-package reasoning stays with each analyzer (and the
	// current package's facts are not complete until its pass finishes).
	if obj.Pkg() == p.Pkg {
		return false
	}
	return p.ImportedFacts.Has(SymbolName(obj), kind)
}

// exportFact records a fact about obj if the pass runs under the graph
// driver; a no-op otherwise.
func (p *Pass) exportFact(obj types.Object, kind string) {
	if p.ExportFact != nil && obj != nil {
		p.ExportFact(obj, kind)
	}
}
