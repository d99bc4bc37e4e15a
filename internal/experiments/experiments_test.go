package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/tfhe"
)

func TestRunAllProducesReports(t *testing.T) {
	reports, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("%d reports for %d experiments", len(reports), len(IDs()))
	}
	for _, r := range reports {
		if len(r.Rows) == 0 {
			t.Errorf("%s: no rows", r.ID)
		}
		if len(r.Header) == 0 {
			t.Errorf("%s: no header", r.ID)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Header) {
				t.Errorf("%s: row width %d != header width %d", r.ID, len(row), len(r.Header))
			}
		}
		if !strings.Contains(r.Text(), r.Title) {
			t.Errorf("%s: Text() missing title", r.ID)
		}
		if !strings.HasPrefix(r.CSV(), r.Header[0]) {
			t.Errorf("%s: CSV() missing header", r.ID)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("table99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestFig1Breakdown(t *testing.T) {
	r, err := Fig1(tfhe.ParamsTest, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Gate-level shares must parse and sum to ~100%.
	var sum float64
	for _, row := range r.Rows[:3] {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		sum += v
	}
	if sum < 99.5 || sum > 100.5 {
		t.Errorf("gate-level shares sum to %.2f%%", sum)
	}
}

func TestFig2StepsAtFragmentBoundaries(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	device, core := map[string]string{}, map[string]string{}
	for _, row := range r.Rows {
		switch row[0] {
		case "device-level (# LWE)":
			device[row[1]] = row[2]
		case "core-level (# LWE/core)":
			core[row[1]] = row[2]
		}
	}
	// Left plot: flat at 1 through 72 LWEs, 2 through 144, 4 at 288.
	if device["1"] != "1.0" || device["72"] != "1.0" || device["73"] != "2.0" ||
		device["144"] != "2.0" || device["288"] != "4.0" {
		t.Errorf("device-level series wrong: %v", device)
	}
	// Right plot: core-level batching on the GPU scales time linearly —
	// no benefit (the paper's motivation for specialized hardware).
	if core["1"] != "1.0" || core["2"] != "2.0" || core["3"] != "3.0" {
		t.Errorf("core-level series wrong: %v", core)
	}
}

func TestTable5HasAllPlatforms(t *testing.T) {
	r, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	text := r.Text()
	for _, want := range []string{"Concrete", "NuFHE", "YKP", "XHEC", "Matcha", "Strix"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 5 missing platform %s", want)
		}
	}
	// 4 CPU + 2 GPU + 5 comparators + 4 Strix rows.
	if len(r.Rows) != 15 {
		t.Errorf("Table 5 has %d rows, want 15", len(r.Rows))
	}
}

func TestTable6ImprovementColumns(t *testing.T) {
	r, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if !strings.HasSuffix(row[3], "x") {
			t.Errorf("improvement cell %q should end in x", row[3])
		}
	}
}

func TestTable7Rows(t *testing.T) {
	r, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("Table 7 has %d rows, want 5", len(r.Rows))
	}
	// First two configs compute-bound, the last memory-bound.
	if r.Rows[0][5] != "compute" {
		t.Errorf("TvLP=16 should be compute bound, got %s", r.Rows[0][5])
	}
	if r.Rows[4][5] != "memory" {
		t.Errorf("CLP=32 should be memory bound, got %s", r.Rows[4][5])
	}
}

func TestFig7SpeedupShape(t *testing.T) {
	r, err := Fig7(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("Fig 7 has %d rows, want 9", len(r.Rows))
	}
	for _, row := range r.Rows {
		cpu := parseF(t, row[2])
		gpu := parseF(t, row[3])
		strix := parseF(t, row[4])
		if !(strix < gpu && gpu < cpu) {
			t.Errorf("%s N=%s: expected Strix < GPU < CPU, got %v/%v/%v",
				row[0], row[1], strix, gpu, cpu)
		}
	}
}

func TestFig8UtilizationRows(t *testing.T) {
	r, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	util := map[string]string{}
	for _, row := range r.Rows {
		util[row[0]] = row[1]
	}
	if util["FFT"] != "100%" {
		t.Errorf("FFT utilization %s, want 100%%", util["FFT"])
	}
	if util["Rotator"] != "50%" {
		t.Errorf("rotator utilization %s, want 50%%", util["Rotator"])
	}
	// The Gantt must appear in the notes.
	if !strings.Contains(r.Text(), "Rotator") {
		t.Error("missing gantt")
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float cell %q", s)
	}
	return v
}
