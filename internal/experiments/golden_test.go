package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden reports from the current models:
//
//	go test ./internal/experiments -run TestGoldenReports -update
//
// Each registered experiment has one file, testdata/<id>.csv: the report's
// CSV, then its notes as "# note: " lines. A diff means a paper artifact
// moved; review it cell by cell before committing it.
var update = flag.Bool("update", false, "rewrite the golden report fixtures")

// golden renders what a report's fixture holds.
func golden(r Report) string {
	var b strings.Builder
	b.WriteString(r.CSV())
	for _, n := range r.Notes {
		for _, line := range strings.Split(n, "\n") {
			b.WriteString("# note: " + line + "\n")
		}
	}
	return b.String()
}

// TestGoldenReports pins every report RunAll produces, byte for byte.
func TestGoldenReports(t *testing.T) {
	reports, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		path := filepath.Join("testdata", r.ID+".csv")
		got := golden(r)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to record it)", r.ID, err)
		}
		if got != string(want) {
			t.Errorf("%s moved from %s:\n--- want\n%s--- got\n%s", r.ID, path, want, got)
		}
	}
}
