package benchmark

import (
	"testing"

	"fixture/internal/lib"
)

func TestBenchOnly(t *testing.T) { lib.BenchOnly() }
