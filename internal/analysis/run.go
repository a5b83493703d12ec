package analysis

import (
	"fmt"
	"go/types"
	"sort"
)

// Finding is one position-resolved diagnostic — the serializable form the
// driver prints and emits as JSON.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Package  string `json:"package"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Verb is the suppression verb that can silence the finding; empty for
	// unsuppressible findings.
	Verb string `json:"verb,omitempty"`
	// Suppressed marks a finding covered by a directive, present only in
	// KeepSuppressed (audit) runs.
	Suppressed bool `json:"suppressed,omitempty"`
}

// PkgResult is one package's analysis outcome: its findings (empty for
// out-of-scope and dep-only packages) and the facts it exports to
// dependents.
type PkgResult struct {
	ImportPath string    `json:"package"`
	Findings   []Finding `json:"findings"`
	Facts      []Fact    `json:"facts"`
}

// RunOptions configures a graph run.
type RunOptions struct {
	// KeepSuppressed reports directive-covered findings too, marked
	// Suppressed — the audit mode.
	KeepSuppressed bool
	// InScope filters which packages produce findings; nil means all.
	// Fact generation always runs on every loaded package regardless.
	InScope func(importPath string) bool
}

// RunGraph applies the analyzers to the packages in dependency order,
// which is the order Load returns them in (`go list -deps` lists every
// package after its dependencies). Each pass therefore starts with the
// facts of its whole transitive dependency closure (allocates, wallclock,
// retains:N, ...). One sequential loop; results come back sorted by
// import path, one per package.
func RunGraph(pkgs []*Package, analyzers []*Analyzer, opt RunOptions) ([]*PkgResult, error) {
	inGraph := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		inGraph[p.ImportPath] = true
	}
	// visible maps each analyzed package to the facts its dependents see:
	// its own exports plus everything visible to it.
	visible := make(map[string][]Fact, len(pkgs))
	out := make([]*PkgResult, 0, len(pkgs))
	for _, pkg := range pkgs {
		depFacts := make(FactSet)
		for _, imp := range pkg.Imports {
			if !inGraph[imp] {
				continue
			}
			facts, analyzed := visible[imp]
			if !analyzed {
				return nil, fmt.Errorf("analysis: %s listed before its dependency %s", pkg.ImportPath, imp)
			}
			depFacts.AddAll(facts)
		}
		inScope := !pkg.DepOnly && (opt.InScope == nil || opt.InScope(pkg.ImportPath))
		res, err := analyzePackage(pkg, analyzers, opt, inScope, depFacts)
		if err != nil {
			return nil, err
		}
		depFacts.AddAll(res.Facts)
		visible[pkg.ImportPath] = depFacts.Sorted()
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// analyzePackage runs every analyzer over one package with the given
// dependency facts, returning resolved findings (empty when out of scope)
// and the package's exported facts.
func analyzePackage(pkg *Package, analyzers []*Analyzer, opt RunOptions, inScope bool, depFacts FactSet) (*PkgResult, error) {
	exported := make(FactSet)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:       a,
			Fset:           pkg.Fset,
			Files:          pkg.Files,
			Pkg:            pkg.Types,
			TypesInfo:      pkg.TypesInfo,
			KeepSuppressed: opt.KeepSuppressed,
			ImportedFacts:  depFacts,
			ExportFact: func(obj types.Object, kind string) {
				if sym := SymbolName(obj); sym != "" {
					exported.Add(sym, kind)
				}
			},
			Report: func(d Diagnostic) {
				if inScope {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		findings = append(findings, Finding{
			File:       pos.Filename,
			Line:       pos.Line,
			Column:     pos.Column,
			Package:    pkg.ImportPath,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Verb:       d.Verb,
			Suppressed: d.Suppressed,
		})
	}
	return &PkgResult{
		ImportPath: pkg.ImportPath,
		Findings:   findings,
		Facts:      exported.Sorted(),
	}, nil
}
