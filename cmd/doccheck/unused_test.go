package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCallerCheckFixture runs the caller check over the module in
// testdata/mod, whose package internal/lib declares one export per case,
// against the fixture's own allowlist.
func TestCallerCheckFixture(t *testing.T) {
	root := filepath.Join("testdata", "mod")
	text, err := os.ReadFile(filepath.Join(root, "allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllow(string(text))
	if err != nil {
		t.Fatal(err)
	}
	fset, files, err := parseDir(filepath.Join(root, "internal", "lib"))
	if err != nil {
		t.Fatal(err)
	}
	exps, err := unused(root, exportsOf(fset, files, "internal/lib"))
	if err != nil {
		t.Fatal(err)
	}
	got := filterAllowed(exps, allow, "allowlist.txt")
	for _, tc := range []struct {
		name, line string
		reported   bool
	}{
		{"unused export", "exported function lib.Unused has no caller", true},
		{"used only from a test file", "exported function lib.TestOnly has no caller", true},
		{"used from a benchmark test file", "lib.BenchOnly", false},
		{"method declared by an interface", "lib.Impl.Hidden", false},
		{"method called on its receiver", "lib.Called.Run", false},
		{"method of the same name called on another type", "exported method lib.Idle.Run has no caller", true},
		{"allowlisted", "lib.Allowed", false},
		{"stale allowlist line", "allowlist.txt:2: stale entry lib.Gone:", true},
	} {
		found := false
		for _, g := range got {
			found = found || strings.Contains(g, tc.line)
		}
		if found != tc.reported {
			t.Errorf("%s: reported = %v, want %v (findings %q)", tc.name, found, tc.reported, got)
		}
	}
	if len(got) != 4 {
		t.Errorf("got %d findings, want 4: %q", len(got), got)
	}
}

// TestParseAllowRefuses: every allowlist line names something and gives a
// reason, and the list has at most maxAllow entries.
func TestParseAllowRefuses(t *testing.T) {
	for name, text := range map[string]string{
		"no reason":    "lib.Unused\n",
		"empty":        "lib.Unused  #\n",
		"two names":    "lib.A lib.B  # why\n",
		"no name":      "  # why\n",
		"over the cap": strings.Repeat("lib.X  # why\n", maxAllow+1),
	} {
		if _, err := parseAllow(text); err == nil {
			t.Errorf("%s: parseAllow accepted %q", name, text)
		}
	}
}
