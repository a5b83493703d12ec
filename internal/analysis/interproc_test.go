package analysis_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loadInterproc loads the two-package fixture module under
// testdata/interproc: package state declares the marked types and hides
// each contract violation behind a wrapper; package app violates every
// contract across the package boundary.
func loadInterproc(t *testing.T) []*analysis.Package {
	t.Helper()
	pkgs, err := analysis.Load("testdata/interproc", "./...")
	if err != nil {
		t.Fatalf("loading interproc fixture module: %v", err)
	}
	if len(pkgs) != 2 {
		paths := make([]string, len(pkgs))
		for i, p := range pkgs {
			paths[i] = p.ImportPath
		}
		t.Fatalf("loaded %v, want exactly [interproc/app interproc/state]", paths)
	}
	return pkgs
}

func appPackage(t *testing.T, pkgs []*analysis.Package) *analysis.Package {
	t.Helper()
	for _, p := range pkgs {
		if p.ImportPath == "interproc/app" {
			return p
		}
	}
	t.Fatal("interproc/app not loaded")
	return nil
}

func appResult(t *testing.T, results []*analysis.PkgResult) *analysis.PkgResult {
	t.Helper()
	for _, r := range results {
		if r.ImportPath == "interproc/app" {
			return r
		}
	}
	t.Fatal("no result for interproc/app")
	return nil
}

// TestInterprocCatchesCrossPackageViolations is the acceptance test for
// the fact layer: the graph run must flag all three cross-package
// violations in app — the hot path calling a transitively-allocating
// helper, the transitive wall-clock read, and the pooled argument handed to
// a cross-package retainer — while a per-package run of the same analyzers
// over app alone provably sees none of them.
func TestInterprocCatchesCrossPackageViolations(t *testing.T) {
	pkgs := loadInterproc(t)
	results, err := analysis.RunGraph(pkgs, analysis.Analyzers(), analysis.RunOptions{})
	if err != nil {
		t.Fatalf("RunGraph: %v", err)
	}
	app := appResult(t, results)

	wantByAnalyzer := map[string]string{
		"hotpathalloc": "calls interproc/state.Wrap, which allocates on its steady path (exported fact)",
		"simclock":     "call to interproc/state.WrapClock, which transitively reads the wall clock",
		"poolcheck":    "passed to interproc/state.Keep, which retains this parameter (exported fact)",
	}
	got := make(map[string][]string)
	for _, f := range app.Findings {
		got[f.Analyzer] = append(got[f.Analyzer], f.Message)
	}
	for analyzer, want := range wantByAnalyzer {
		matched := false
		for _, msg := range got[analyzer] {
			if strings.Contains(msg, want) {
				matched = true
			}
		}
		if !matched {
			t.Errorf("graph run: no %s finding containing %q in app; got %v", analyzer, want, got[analyzer])
		}
	}

	// The same analyzers applied to app alone — the pre-fact-layer,
	// per-package mode — must miss every one of these: the evidence lives
	// in package state.
	appPkg := appPackage(t, pkgs)
	for _, a := range analysis.Analyzers() {
		diags, err := analysis.RunAnalyzer(a, appPkg)
		if err != nil {
			t.Fatalf("RunAnalyzer(%s, app): %v", a.Name, err)
		}
		if len(diags) != 0 {
			msgs := make([]string, len(diags))
			for i, d := range diags {
				msgs[i] = d.Message
			}
			t.Errorf("per-package %s run on app found %v; the fixture violations must only be catchable interprocedurally", a.Name, msgs)
		}
	}
}

// TestInterprocFactExports pins the fact inventory the fixture exports:
// the markers travel from state, and app's wrappers re-export the derived
// facts (transitive wallclock, transitive retention).
func TestInterprocFactExports(t *testing.T) {
	pkgs := loadInterproc(t)
	results, err := analysis.RunGraph(pkgs, analysis.Analyzers(), analysis.RunOptions{})
	if err != nil {
		t.Fatalf("RunGraph: %v", err)
	}
	facts := make(map[string]bool)
	for _, r := range results {
		for _, f := range r.Facts {
			facts[f.Sym+" "+f.Kind] = true
		}
	}
	for _, want := range []string{
		"interproc/state.Rec pooled",
		"interproc/state.Wrap allocates",
		"interproc/state.WrapClock wallclock",
		"interproc/state.Keep retains:0",
		"interproc/state.Keep sharedstate",
		"interproc/app.Hot hotpath",
		"interproc/app.Tick wallclock",
		"interproc/app.Retain retains:0",
	} {
		if !facts[want] {
			t.Errorf("missing exported fact %q", want)
		}
	}
}

// TestRunGraphDeterministic requires byte-identical results from two runs
// over the same packages: the driver is a plain loop in dependency order,
// so nothing about a run may depend on map order or timing.
func TestRunGraphDeterministic(t *testing.T) {
	pkgs := loadInterproc(t)
	encode := func() string {
		results, err := analysis.RunGraph(pkgs, analysis.Analyzers(), analysis.RunOptions{})
		if err != nil {
			t.Fatalf("RunGraph: %v", err)
		}
		b, err := json.Marshal(results)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(b)
	}
	if a, b := encode(), encode(); a != b {
		t.Errorf("two runs over the same packages differ:\n%s\n%s", a, b)
	}
}

// TestRunGraphRejectsOutOfOrderPackages: facts flow from dependencies to
// dependents only if every package comes after its dependencies, so a
// reversed package list is an error, not a silently fact-less run.
func TestRunGraphRejectsOutOfOrderPackages(t *testing.T) {
	pkgs := loadInterproc(t)
	reversed := []*analysis.Package{pkgs[1], pkgs[0]}
	if _, err := analysis.RunGraph(reversed, analysis.Analyzers(), analysis.RunOptions{}); err == nil {
		t.Fatal("RunGraph accepted app before its dependency state")
	}
}
