package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestMain runs the package's tests with the user cache directory pointed
// at an empty temporary directory, and fails the run if any test left
// anything there: the gate keeps no state between runs. The go command's
// own build cache and environment file stay where they are, so the tests
// still reuse compiled export data.
func TestMain(m *testing.M) {
	os.Exit(runWithPrivateUserCache(m))
}

func runWithPrivateUserCache(m *testing.M) int {
	for _, v := range []string{"GOCACHE", "GOENV", "GOPATH", "GOMODCACHE"} {
		out, err := exec.Command("go", "env", v).Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "go env %s: %v\n", v, err)
			return 2
		}
		os.Setenv(v, strings.TrimSpace(string(out)))
	}
	home, err := os.MkdirTemp("", "f2tree-vet-home")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(home)
	os.Setenv("HOME", home)
	os.Setenv("XDG_CACHE_HOME", filepath.Join(home, "cache"))
	cacheDir, err := os.UserCacheDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	code := m.Run()
	if entries, _ := os.ReadDir(cacheDir); len(entries) > 0 {
		fmt.Fprintf(os.Stderr, "tests wrote %d entries under the user cache directory %s\n", len(entries), cacheDir)
		return 1
	}
	return code
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote. run() prints findings and JSON to the real stdout, so the
// output-shape tests need the redirect.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("reading captured stdout: %v", err)
	}
	return string(out)
}

func TestListExitsClean(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Errorf("run(-list) = %d, want 0", code)
	}
}

func TestCleanPackagesPass(t *testing.T) {
	args := []string{"-novet", "repro/internal/sim", "repro/internal/fib", "repro/internal/detsort"}
	if code := run(args); code != 0 {
		t.Errorf("run(%v) = %d, want 0", args, code)
	}
}

func TestDetectsViolations(t *testing.T) {
	// The analyzer fixtures double as end-to-end violation corpora: with
	// -all the scope filter is lifted and each must fail the gate.
	for _, dir := range []string{
		"../../internal/analysis/testdata/src/mapiter",
		"../../internal/analysis/testdata/src/simclock",
		"../../internal/analysis/testdata/src/lockcheck",
		"../../internal/analysis/testdata/src/poolcheck",
		"../../internal/analysis/testdata/src/hotpathalloc",
		"../../internal/analysis/testdata/src/epochcheck",
		"../../internal/analysis/testdata/src/handlecheck",
	} {
		args := []string{"-novet", "-all", dir}
		if code := run(args); code != 1 {
			t.Errorf("run(%v) = %d, want 1", args, code)
		}
	}
}

func TestBadPatternFails(t *testing.T) {
	if code := run([]string{"-novet", "repro/internal/nosuchpackage"}); code != 2 {
		t.Errorf("run on missing package = %d, want 2", code)
	}
}

func TestNoScopedPackagesFails(t *testing.T) {
	// The fixture package loads fine but is not in scope; without -all a
	// run that analyzes nothing must not masquerade as a clean one.
	args := []string{"-novet", "../../internal/analysis/testdata/src/mapiter"}
	if code := run(args); code != 2 {
		t.Errorf("run(%v) = %d, want 2 (zero packages in scope)", args, code)
	}
}

func TestJSONFindings(t *testing.T) {
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-novet", "-all", "-json", "../../internal/analysis/testdata/src/mapiter"})
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if rep.Count == 0 || len(rep.Findings) != rep.Count {
		t.Fatalf("count = %d with %d findings, want a consistent non-zero report", rep.Count, len(rep.Findings))
	}
	f := rep.Findings[0]
	if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
		t.Errorf("finding fields incomplete: %+v", f)
	}
}

func TestJSONCleanEmitsEmptyList(t *testing.T) {
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-novet", "-json", "repro/internal/detsort"})
	})
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var rep struct {
		Findings json.RawMessage `json:"findings"`
		Count    int             `json:"count"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if string(rep.Findings) == "null" {
		t.Error("clean report encodes findings as null, want []")
	}
	if rep.Count != 0 {
		t.Errorf("count = %d, want 0", rep.Count)
	}
}

func TestAuditCleanPackages(t *testing.T) {
	args := []string{"-audit", "repro/internal/sim", "repro/internal/fib", "repro/internal/detsort"}
	var code int
	out := captureStdout(t, func() { code = run(args) })
	if code != 0 {
		t.Errorf("run(%v) = %d, want 0", args, code)
	}
	if out == "" {
		t.Error("audit of annotated packages printed no inventory")
	}
}

func TestAuditDetectsDefects(t *testing.T) {
	// The audit fixture contains a stale suppression, an unknown verb and
	// an unjustified directive; the audit must fail on it.
	args := []string{"-all", "-audit", "../../internal/analysis/testdata/src/audit"}
	var code int
	out := captureStdout(t, func() { code = run(args) })
	if code != 1 {
		t.Fatalf("run(%v) = %d, want 1\n%s", args, code, out)
	}
}

func TestAuditJSONShape(t *testing.T) {
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-all", "-audit", "-json", "../../internal/analysis/testdata/src/audit"})
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var res analysis.AuditResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("audit output is not valid JSON: %v\n%s", err, out)
	}
	if len(res.Directives) == 0 {
		t.Error("audit JSON has an empty directive inventory")
	}
	if len(res.Stale) == 0 || len(res.Unknown) == 0 || len(res.Unjustified) == 0 {
		t.Errorf("audit JSON missing defect classes: stale=%d unknown=%d unjustified=%d",
			len(res.Stale), len(res.Unknown), len(res.Unjustified))
	}
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

// TestAuditHermeticAcrossCheckouts audits two copies of one fixture module
// with HOME and XDG_CACHE_HOME shared between them. Once each copy's own
// path is stripped, both audits must be identical and clean, and nothing
// may appear under the shared user cache directory. A result cache kept
// there once replayed the first copy's absolute paths into the second
// audit, where every live suppression then looked stale.
func TestAuditHermeticAcrossCheckouts(t *testing.T) {
	shared := t.TempDir()
	t.Setenv("HOME", shared)
	t.Setenv("XDG_CACHE_HOME", filepath.Join(shared, "cache"))
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(wd, "../../internal/analysis/testdata/interproc")

	var audits []string
	for i := 0; i < 2; i++ {
		dir := filepath.Join(t.TempDir(), "interproc")
		copyTree(t, src, dir)
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
		// Registered after the copy's TempDir, so it runs before the
		// copy is removed.
		t.Cleanup(func() { os.Chdir(wd) })
		var code int
		out := captureStdout(t, func() {
			code = run([]string{"-novet", "-all", "-audit", "-json", "./..."})
		})
		if code != 0 {
			t.Errorf("audit of copy %d exited %d, want 0:\n%s", i, code, out)
		}
		var res analysis.AuditResult
		if err := json.Unmarshal([]byte(out), &res); err != nil {
			t.Fatalf("copy %d: audit output is not valid JSON: %v\n%s", i, err, out)
		}
		if len(res.Directives) == 0 {
			t.Fatalf("copy %d: audit found no directives; the fixture must carry some", i)
		}
		audits = append(audits, strings.ReplaceAll(out, dir, "<checkout>"))
	}
	if audits[0] != audits[1] {
		t.Errorf("audits of two identical checkouts differ:\n%s\n---\n%s", audits[0], audits[1])
	}
	if entries, _ := os.ReadDir(filepath.Join(shared, "cache")); len(entries) > 0 {
		t.Errorf("f2tree-vet wrote %d entries under the shared user cache directory", len(entries))
	}
}
