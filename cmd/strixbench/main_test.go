package main

import (
	"strings"
	"testing"

	"repro/cmd/internal/cmdtest"
)

// TestSmoke builds strixbench and drives each mode with a tiny workload.
func TestSmoke(t *testing.T) {
	bin := cmdtest.Build(t)

	t.Run("list", func(t *testing.T) {
		out := cmdtest.Run(t, bin, "-list")
		cmdtest.WantSubstrings(t, out, "fig1", "table5")
	})

	t.Run("circuit", func(t *testing.T) {
		out := cmdtest.Run(t, bin, "-circuit", "2", "-parallel", "2", "-set", "test")
		cmdtest.WantSubstrings(t, out, "circuit mode: set test, 2-digit multiply",
			"plan     :", "sequential:", "scheduled :", "verified  :", "bitwise identical")
	})

	t.Run("circuit bad digits", func(t *testing.T) {
		out, err := cmdtest.RunErr(t, bin, "-circuit", "-3")
		if err == nil {
			t.Errorf("negative digit count succeeded:\n%s", out)
		}
	})

	t.Run("infer", func(t *testing.T) {
		out := cmdtest.Run(t, bin, "-infer", "1", "-clients", "1", "-set", "test")
		cmdtest.WantSubstrings(t, out, "infer mode: set test, 1 clients x 1 inferences",
			"verified : all 256 sweep vectors", "plain    :", "optimized:", "inf/s")
	})

	t.Run("one experiment", func(t *testing.T) {
		out := cmdtest.Run(t, bin, "-exp", "table5")
		cmdtest.WantSubstrings(t, out, "TABLE5", "throughput")
	})

	t.Run("exclusive modes rejected", func(t *testing.T) {
		out, err := cmdtest.RunErr(t, bin, "-circuit", "2", "-infer", "1")
		if err == nil {
			t.Errorf("-circuit with -infer succeeded:\n%s", out)
		}
	})

	t.Run("bad set rejected", func(t *testing.T) {
		out, err := cmdtest.RunErr(t, bin, "-circuit", "1", "-set", "nope")
		if err == nil {
			t.Errorf("unknown set succeeded:\n%s", out)
		}
	})

	// The modes the benchmark ledger replaced are gone, flags and all: each
	// is refused by the flag package before anything runs.
	t.Run("retired flags rejected", func(t *testing.T) {
		for _, args := range [][]string{
			{"-batch", "8"}, {"-stream", "8"}, {"-serve"}, {"-multilut", "2"},
			{"-restore", "1"}, {"-cluster", "2"}, {"-node"}, {"-gates", "4"},
		} {
			out, err := cmdtest.RunErr(t, bin, args...)
			if err == nil {
				t.Errorf("strixbench %s succeeded:\n%s", strings.Join(args, " "), out)
			}
			cmdtest.WantSubstrings(t, out, "flag provided but not defined: "+args[0], "Usage of")
		}
	})
}
