package experiments

import (
	"fmt"
	"sort"

	"repro/internal/tfhe"
)

// Runner produces one experiment report.
type Runner func() (Report, error)

// Registry maps experiment IDs to runners with default arguments. Fig 1
// runs on the test-sized parameter set by default so `-exp all` stays
// fast; use Fig1 directly with tfhe.ParamsI for the full-scale run.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig1":   func() (Report, error) { return Fig1(tfhe.ParamsTest, 1) },
		"fig2":   Fig2,
		"table3": Table3,
		"table4": Table4,
		"table5": Table5,
		"table6": Table6,
		"table7": Table7,
		"fig7":   func() (Report, error) { return Fig7(20) },
		"fig8":   Fig8,

		// Ablations beyond the paper (ablations.go).
		"ablation-unroll":    AblationUnrolling,
		"ablation-corebatch": AblationCoreBatch,
		"ablation-bandwidth": AblationBandwidth,
	}
}

// IDs returns the registered experiment IDs in a stable order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string) (Report, error) {
	r, ok := Registry()[id]
	if !ok {
		return Report{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r()
}

// RunAll executes every registered experiment in ID order.
func RunAll() ([]Report, error) {
	var out []Report
	for _, id := range IDs() {
		r, err := Run(id)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}
