package tfhe

import "fmt"

// Codec hooks: structural validation used by the wire codec
// (internal/wire) and the gate service (internal/server) when key material
// crosses a trust boundary. Inside one process the shapes are correct by
// construction; after decoding bytes from a client they must be re-checked
// before an Evaluator ever indexes into them.

// Validate checks that every component of the key set has exactly the
// shape the parameter set dictates: SmallN GGSW ciphertexts of
// (k+1)·lb·(k+1) Fourier polynomials of N/2 coefficients in the BSK, and
// k·N × lk rows of n+1 words in the KSK slab. A decoded key that
// passes Validate can be used by an Evaluator without any further bounds
// concern.
func (ek EvaluationKeys) Validate() error {
	p := ek.Params
	if err := p.Validate(); err != nil {
		return err
	}
	m := p.N / 2
	if len(ek.BSK) != p.SmallN {
		return fmt.Errorf("tfhe: BSK has %d entries, want n=%d", len(ek.BSK), p.SmallN)
	}
	for i, g := range ek.BSK {
		if len(g.Rows) != p.K+1 {
			return fmt.Errorf("tfhe: BSK[%d] has %d row groups, want k+1=%d", i, len(g.Rows), p.K+1)
		}
		for j, rows := range g.Rows {
			if len(rows) != p.PBSLevel {
				return fmt.Errorf("tfhe: BSK[%d].Rows[%d] has %d levels, want lb=%d", i, j, len(rows), p.PBSLevel)
			}
			for l, row := range rows {
				if len(row) != p.K+1 {
					return fmt.Errorf("tfhe: BSK[%d].Rows[%d][%d] has %d polys, want k+1=%d", i, j, l, len(row), p.K+1)
				}
				for c, fp := range row {
					if len(fp) != m {
						return fmt.Errorf("tfhe: BSK[%d].Rows[%d][%d][%d] has %d Fourier coeffs, want N/2=%d", i, j, l, c, len(fp), m)
					}
				}
			}
		}
	}
	if len(ek.KSK) != p.KSKWords() {
		return fmt.Errorf("tfhe: KSK has %d words, want kN·lk·(n+1)=%d", len(ek.KSK), p.KSKWords())
	}
	return nil
}
