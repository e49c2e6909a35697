package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subgraphmr/internal/lint/driver"
)

// TestNoVettoolProtocol: sgmrlint has one analysis mode. The flags
// cmd/go's -vettool handshake sends are unknown flags now, and a vet .cfg
// file is just a pattern go list cannot load; each is a usage error.
func TestNoVettoolProtocol(t *testing.T) {
	for _, arg := range []string{"-V=full", "-V", "-flags"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{arg}, &stdout, &stderr); code != 2 {
			t.Errorf("%s exited %d, want 2", arg, code)
		}
		if want := "sgmrlint: unknown flag " + arg; !strings.Contains(stderr.String(), want) {
			t.Errorf("%s: stderr %q lacks %q", arg, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s printed %q on stdout", arg, stdout.String())
		}
	}
}

func TestUsageListsAllAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("help exited %d", code)
	}
	for _, name := range []string{"planmutate", "detenc", "ctxhygiene", "sinkstop", "failcover", "errwrap", "hotalloc", "lint:allow", "-json", "-escapes"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("usage output missing %q", name)
		}
	}
}

// TestJSONOutput pins the machine-readable mode: findings come out as one
// JSON array of {file,line,col,analyzer,message,suppressed} objects on
// stdout, suppressed findings are included and marked, and only
// unsuppressed ones drive the exit code.
func TestJSONOutput(t *testing.T) {
	mod := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module jsonfixture\n\ngo 1.24\n")
	write("a.go", `package jsonfixture

import "context"

func Detached() context.Context {
	return context.Background()
}

func Excused() context.Context {
	//lint:allow ctxhygiene fixture: documented root context
	return context.Background()
}
`)
	t.Chdir(mod)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("-json run exited %d (stderr: %s), want 1", code, stderr.String())
	}
	var findings []driver.Finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON findings array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 2 {
		t.Fatalf("want the flagged and the suppressed finding, got %+v", findings)
	}
	flagged, excused := findings[0], findings[1]
	if flagged.Suppressed || !excused.Suppressed {
		t.Errorf("suppression marks wrong: %+v", findings)
	}
	for _, f := range findings {
		if f.Analyzer != "ctxhygiene" || !strings.HasSuffix(f.File, "a.go") || f.Line == 0 || f.Col == 0 || !strings.Contains(f.Message, "Background()") {
			t.Errorf("finding fields incomplete: %+v", f)
		}
	}

	// A clean tree in -json mode still prints a (empty) JSON array.
	write("a.go", "package jsonfixture\n")
	stdout.Reset()
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean -json run exited %d: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestTestFileDirectives: directives in _test.go files are validated like
// any other. A stale allow in an in-package test file and an allow naming
// an unknown analyzer in an external test file are both reported, and a
// violation in the package's own file is reported once, not again for the
// test variant that recompiles it. The external test uses a name declared
// in the in-package test file, so it type-checks only if its import
// resolves to the test variant.
func TestTestFileDirectives(t *testing.T) {
	mod := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module testfixture\n\ngo 1.24\n")
	write("a.go", `package testfixture

import "context"

func Detached() context.Context {
	return context.Background()
}
`)
	write("a_test.go", `package testfixture

import "testing"

// Root is visible to the external test only through the test variant.
var Root = Detached

func TestDetached(t *testing.T) {
	//lint:allow ctxhygiene fixture: excuses nothing, test files are out of scope
	if Detached() == nil {
		t.Fatal("nil context")
	}
}
`)
	write("b_test.go", `package testfixture_test

import (
	"testing"

	"testfixture"
)

func TestExternal(t *testing.T) {
	//lint:allow nosuchcheck fixture: no analyzer has this name
	_ = testfixture.Root()
}
`)
	t.Chdir(mod)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exited %d (stderr: %s), want 1", code, stderr.String())
	}
	var findings []driver.Finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON findings array: %v\n%s", err, stdout.String())
	}
	want := []struct {
		file, analyzer, message string
		line                    int
	}{
		{"a.go", "ctxhygiene", "Background()", 6},
		{"a_test.go", "sgmrlint", "suppresses no diagnostic", 9},
		{"b_test.go", "sgmrlint", "unknown analyzer nosuchcheck", 10},
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%+v", len(findings), len(want), findings)
	}
	for i, w := range want {
		f := findings[i]
		if filepath.Base(f.File) != w.file || f.Line != w.line || f.Analyzer != w.analyzer ||
			!strings.Contains(f.Message, w.message) || f.Suppressed {
			t.Errorf("finding %d = %+v, want %s:%d %s %q", i, f, w.file, w.line, w.analyzer, w.message)
		}
	}
}
