package arch

import (
	"fmt"

	"repro/internal/tfhe"
)

// Config describes one Strix instantiation. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Parallelism levels (§IV-A). TvLP is the number of HSCs; CLP the
	// number of FFT lanes; PLP the replication of FFT/VMA units; CoLP the
	// replication of rotator/accumulator units.
	TvLP int
	CLP  int
	PLP  int
	CoLP int

	// Clock frequency in Hz (1.2 GHz in the paper).
	FreqHz float64

	// External memory: one HBM2e stack, 300 GB/s over 16 channels split
	// 8/4/4 between bootstrapping key, keyswitching key and ciphertext
	// traffic (§VI-A).
	HBMBytesPerSec float64
	TotalChannels  int
	BskChannels    int
	KskChannels    int
	CtChannels     int

	// Keyswitch cluster lanes (§IV-A: CLP=8, CoLP=8 for keyswitching).
	KSCLP  int
	KSCoLP int

	// Scratchpad capacities in bytes (0.625 MB local, 21 MB global).
	LocalScratchpadBytes  int
	GlobalScratchpadBytes int

	// CoreBatch is the core-level batch size (LWEs processed back-to-back
	// by one HSC per blind-rotation iteration). 0 selects the smallest
	// batch that keeps the pipeline compute-bound, capped by the local
	// scratchpad capacity.
	CoreBatch int

	// Folded selects the FFT folding scheme of §V-A (N-point transform on
	// an N/2-point unit). Disabling it reproduces the "No Fold." column
	// of Table VI.
	Folded bool

	// BskComplexBytes is the storage size of one Fourier-domain
	// bootstrapping-key coefficient as streamed from HBM (real+imag,
	// 32 bits each, matching the 64-bit FFTU datapath).
	BskComplexBytes int
}

// DefaultConfig returns the Strix configuration evaluated in the paper:
// TvLP=8, CLP=4, PLP=2, CoLP=2 at 1.2 GHz with one 300 GB/s HBM2e stack.
func DefaultConfig() Config {
	return Config{
		TvLP: 8, CLP: 4, PLP: 2, CoLP: 2,
		FreqHz:         1.2e9,
		HBMBytesPerSec: 300e9,
		TotalChannels:  16, BskChannels: 8, KskChannels: 4, CtChannels: 4,
		KSCLP: 8, KSCoLP: 8,
		LocalScratchpadBytes:  655360,   // 0.625 MB
		GlobalScratchpadBytes: 22020096, // 21 MB
		Folded:                true,
		BskComplexBytes:       8,
	}
}

// WithParallelism returns a copy of c with the four parallelism levels
// replaced — the Table VII sweep keeps TvLP·CLP constant.
func (c Config) WithParallelism(tvlp, clp, plp, colp int) Config {
	c.TvLP, c.CLP, c.PLP, c.CoLP = tvlp, clp, plp, colp
	return c
}

// Validate reports structural configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TvLP < 1 || c.CLP < 1 || c.PLP < 1 || c.CoLP < 1:
		return fmt.Errorf("arch: parallelism levels must be >= 1 (got TvLP=%d CLP=%d PLP=%d CoLP=%d)", c.TvLP, c.CLP, c.PLP, c.CoLP)
	case c.FreqHz <= 0:
		return fmt.Errorf("arch: frequency must be positive")
	case c.HBMBytesPerSec <= 0:
		return fmt.Errorf("arch: HBM bandwidth must be positive")
	case c.BskChannels+c.KskChannels+c.CtChannels != c.TotalChannels:
		return fmt.Errorf("arch: channel split %d+%d+%d != %d",
			c.BskChannels, c.KskChannels, c.CtChannels, c.TotalChannels)
	case c.KSCLP < 1 || c.KSCoLP < 1:
		return fmt.Errorf("arch: keyswitch lanes must be >= 1")
	case c.LocalScratchpadBytes <= 0 || c.GlobalScratchpadBytes <= 0:
		return fmt.Errorf("arch: scratchpads must be positive")
	case c.BskComplexBytes <= 0:
		return fmt.Errorf("arch: BskComplexBytes must be positive")
	}
	return nil
}

// bskBytesPerSec returns the bandwidth available for bootstrapping-key
// streaming (its channel share of the stack).
func (c Config) bskBytesPerSec() float64 {
	return c.HBMBytesPerSec * float64(c.BskChannels) / float64(c.TotalChannels)
}

// MaxCoreBatch returns the largest core-level batch the local scratchpad
// sustains for params: each in-flight LWE needs its intermediate test
// vector double-buffered ((k+1)·N 32-bit words, two copies).
func (c Config) MaxCoreBatch(p tfhe.Params) int {
	perLWE := (p.K + 1) * p.N * 4 * 2
	b := c.LocalScratchpadBytes / perLWE
	if b < 1 {
		return 0
	}
	return b
}
