// Command f2tree-vet is the repository's determinism and contract
// static-analysis gate. It runs the stock `go vet` passes and then the
// custom analyzers from internal/analysis — mapiter, simclock, lockcheck,
// poolcheck, hotpathalloc, epochcheck and handlecheck — over every
// non-test package in the module, and exits non-zero on any finding.
// Packages are analyzed one after another in dependency order, so the
// facts a package's dependencies export (allocates-on-steady-path,
// reads-wall-clock, retains-parameter, ...) are complete when its pass
// starts, making the analyzers transitive across package boundaries.
// Nothing is cached between runs. CI runs it between `go vet` and the
// race-enabled tests:
//
//	go run ./cmd/f2tree-vet ./...
//
// Flags:
//
//	-novet  skip the stock go vet passes (custom analyzers only)
//	-list   print the analyzers and the in-scope packages, then exit
//	-all    lift the scope filter (analyze every matched package)
//	-json   emit findings (or the -audit inventory) as JSON on stdout
//	-audit  inventory every //f2tree: directive and fail on stale
//	        suppressions, unknown verbs and missing justifications
//
// Exit codes: 0 clean, 1 findings (or audit defects), 2 operational
// error — including a package pattern that matches nothing in scope, so a
// typo'd pattern cannot masquerade as a clean run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// jsonReport is the -json output for a normal (non-audit) run: the flat
// finding list plus each package's exported facts (the whole-program
// inventory downstream tooling consumes).
type jsonReport struct {
	Findings []analysis.Finding         `json:"findings"`
	Count    int                        `json:"count"`
	Facts    map[string][]analysis.Fact `json:"facts"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("f2tree-vet", flag.ContinueOnError)
	novet := fs.Bool("novet", false, "skip the stock go vet passes")
	list := fs.Bool("list", false, "list analyzers and in-scope packages, then exit")
	all := fs.Bool("all", false, "run the analyzers on every listed package, not just the in-scope ones")
	jsonOut := fs.Bool("json", false, "emit findings (or the audit inventory) as JSON on stdout")
	audit := fs.Bool("audit", false, "audit //f2tree: directives instead of reporting findings")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: f2tree-vet [flags] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs go vet plus the determinism/contract analyzers (mapiter, simclock,\n")
		fmt.Fprintf(fs.Output(), "lockcheck, poolcheck, hotpathalloc, epochcheck, handlecheck) in one\n")
		fmt.Fprintf(fs.Output(), "sequential pass in dependency order with cross-package fact propagation.\n")
		fmt.Fprintf(fs.Output(), "Default package pattern: ./...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *list {
		fmt.Println("analyzers:")
		for _, a := range analysis.Analyzers() {
			fmt.Printf("  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Println("in-scope packages:")
		for _, p := range analysis.ScopedPackages() {
			fmt.Printf("  %s\n", p)
		}
		return 0
	}

	failed := false

	if !*novet && !*audit {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if _, isExit := err.(*exec.ExitError); !isExit {
				fmt.Fprintf(os.Stderr, "f2tree-vet: running go vet: %v\n", err)
				return 2
			}
			failed = true
		}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2tree-vet: %v\n", err)
		return 2
	}
	inScope := func(path string) bool { return *all || analysis.InScope(path) }
	scoped := 0
	for _, pkg := range pkgs {
		if !pkg.DepOnly && inScope(pkg.ImportPath) {
			scoped++
		}
	}
	if scoped == 0 {
		fmt.Fprintf(os.Stderr,
			"f2tree-vet: no packages to analyze: %v matched %d package(s), none in scope (use -all to lift the scope filter, -list to see it)\n",
			patterns, len(pkgs))
		return 2
	}

	opt := analysis.RunOptions{InScope: inScope}

	if *audit {
		return runAudit(pkgs, opt, *jsonOut)
	}

	results, err := analysis.RunGraph(pkgs, analysis.Analyzers(), opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2tree-vet: %v\n", err)
		return 2
	}

	report := jsonReport{Facts: make(map[string][]analysis.Fact)}
	for _, r := range results {
		if len(r.Facts) > 0 {
			report.Facts[r.ImportPath] = r.Facts
		}
		for _, f := range r.Findings {
			if *jsonOut {
				report.Findings = append(report.Findings, f)
			} else {
				fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
			}
			report.Count++
		}
	}
	if *jsonOut {
		report.Findings = nonNil(report.Findings)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "f2tree-vet: encoding JSON: %v\n", err)
			return 2
		}
	}
	if report.Count > 0 {
		fmt.Fprintf(os.Stderr, "f2tree-vet: %d finding(s)\n", report.Count)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// runAudit inventories the //f2tree: directives of the in-scope packages
// and fails on stale suppressions, unknown verbs and suppressions with no
// justification. The audit re-runs the analyzers through the same graph
// driver with suppression disabled, so an interprocedural finding (a
// transitive wallclock call, a cross-package retention) keeps its
// directive live.
func runAudit(pkgs []*analysis.Package, opt analysis.RunOptions, jsonOut bool) int {
	res, err := analysis.Audit(pkgs, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2tree-vet: audit: %v\n", err)
		return 2
	}
	if jsonOut {
		res.Directives = nonNil(res.Directives)
		res.Stale = nonNil(res.Stale)
		res.Unknown = nonNil(res.Unknown)
		res.Unjustified = nonNil(res.Unjustified)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "f2tree-vet: encoding JSON: %v\n", err)
			return 2
		}
	} else {
		for _, d := range res.Directives {
			fmt.Printf("%s\n", d.Describe())
		}
		for _, d := range res.Stale {
			fmt.Fprintf(os.Stderr, "f2tree-vet: stale suppression (no %s finding on its line): %s\n", d.Analyzer, d.Describe())
		}
		for _, d := range res.Unknown {
			fmt.Fprintf(os.Stderr, "f2tree-vet: unknown directive verb %q: %s\n", d.Verb, d.Describe())
		}
		for _, d := range res.Unjustified {
			fmt.Fprintf(os.Stderr, "f2tree-vet: suppression without a reason: %s\n", d.Describe())
		}
	}
	if !res.Clean() {
		fmt.Fprintf(os.Stderr, "f2tree-vet: audit: %d stale, %d unknown, %d unjustified directive(s)\n",
			len(res.Stale), len(res.Unknown), len(res.Unjustified))
		return 1
	}
	fmt.Fprintf(os.Stderr, "f2tree-vet: audit: %d directive(s), all live and justified\n", len(res.Directives))
	return 0
}

// nonNil keeps JSON output stable: empty lists encode as [], not null.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
