// Package examples_test is the regression harness over the runnable
// examples: each one is executed via `go run` exactly as the docs tell
// users to, and must exit 0 and print its expected landmarks. This keeps
// every example compiling AND behaving as the README advertises.
package examples_test

import (
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// timeout bounds one example run; everything uses the fast test set or
// pure modelling, so this is generous.
const timeout = 4 * time.Minute

func TestExamples(t *testing.T) {
	cases := []struct {
		dir  string
		want []string
	}{
		{"quickstart", []string{
			"NAND(true, true) = false",
			"XOR(true, true)  = false",
			"computed under encryption",
			"PBS throughput",
		}},
		{"adder8", []string{
			"173 + 94 = 11 (mod 256)",
			"32 bootstraps",
		}},
		{"lutrelu", []string{
			"encrypted activation functions",
			"ReLU(v)",
		}},
		{"batchgates", []string{
			"all decryptions correct",
			"circuit level: 64 gates in one batch",
			"PBS in",
		}},
		{"deepnn", []string{
			"bootstraps per inference",
			"TvLP/CLP sweep",
			// Fig 7's NN-20/N=1024 cells: the same baseline models.
			"GPU (NuFHE):   1820.0 ms",
			"CPU (x20):     2603.0 ms",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel() // examples are independent processes
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			out, err := exec.CommandContext(ctx, "go", "run", "./"+tc.dir).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("example timed out after %v", timeout)
			}
			if err != nil {
				t.Fatalf("go run ./%s: %v\n%s", tc.dir, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}
