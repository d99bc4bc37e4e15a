package workload

import (
	"fmt"

	"repro/internal/sched"
)

// The encrypted cellCNN-style inference model: a fixed, quantized
// convolution → average-pool → dense pipeline over a small single-cell
// feature matrix, shaped after the cellCNN phenotype classifier
// (convolution as packed linear combinations, pooling as a free linear
// node, nonlinearities as programmable bootstraps). Every value on an
// encrypted wire is a digit in {0..InferDigitMax} inside the InferSpace
// PBS message space, and every weight is chosen so intermediate linear
// sums never leave the padding-bit range.
const (
	// InferSpace is the PBS message space the inference inputs, the conv
	// pre-activations, and the output scores live in.
	InferSpace = 16
	// InferPoolSpace is the coarser message space the pooled wires and
	// dense contributions live in. Multi-value packing divides the
	// tolerated input noise by the table count k, so the dense stage's
	// packed bootstrap runs on a space half as fine — InferPoolSpace ·
	// InferClasses = InferSpace buckets — restoring exactly the margin
	// the packing costs. The conv tables emit activations pre-scaled by
	// InferSpace/InferPoolSpace so the pool sum lands on this grid.
	InferPoolSpace = InferSpace / InferClasses
	// InferDigitMax is the largest feature/activation value; linear
	// fan-ins are weighted so sums stay < InferSpace.
	InferDigitMax = 3
	// InferCells is the number of cells in the input feature matrix.
	InferCells = 2
	// InferMarkers is the number of markers measured per cell.
	InferMarkers = 2
	// InferFilters is the convolution filter count.
	InferFilters = 2
	// InferClasses is the number of output classes.
	InferClasses = 2
	// InferFeatures is the flat encrypted input length of one inference:
	// a cell-major feature matrix, features[c*InferMarkers+m] = marker m
	// of cell c.
	InferFeatures = InferCells * InferMarkers
)

// The quantized model weights. Convolution weights keep the worst-case
// pre-activation sum (InferDigitMax · Σ w) plus bias below InferSpace;
// dense weights are applied inside lookup tables, so they are free to
// scale without overflow concerns.
var (
	inferConvW    = [InferFilters][InferMarkers]int{{2, 1}, {1, 2}}
	inferConvBias = [InferFilters]int{0, 1}
	inferDenseW   = [InferClasses][InferFilters]int{{2, 1}, {1, 3}}
)

// inferConvAct is filter f's activation: a shifted clamped ReLU with the
// filter bias folded into the table (adding a plaintext constant to a
// torus message is encoding-dependent; adding it inside the LUT is free).
func inferConvAct(f int) func(int) int {
	bias := inferConvBias[f]
	return func(v int) int { return clampDigit(v + bias - 2) }
}

// inferConvEnc is inferConvAct re-encoded for the pool wire: the table
// emits the activation scaled by InferSpace/InferPoolSpace, so the
// space-InferSpace bootstrap output reads as the plain digit on the
// coarser InferPoolSpace grid the dense stage's packed bootstrap needs.
func inferConvEnc(f int) func(int) int {
	act := inferConvAct(f)
	return func(v int) int { return act(v) * (InferSpace / InferPoolSpace) }
}

// inferDenseTab is the dense-layer table for (filter f, class k): it
// reads the pooled sum over InferCells conv outputs and emits that
// filter's quantized contribution to class k. The ÷InferCells of the
// average pool and the dense weight multiply both fold into the table,
// so the pool itself stays a free (bootstrap-less) linear node.
func inferDenseTab(f, k int) func(int) int {
	w := inferDenseW[k][f]
	return func(s int) int { return clampDigit(w * s / InferCells) }
}

// inferLogit requantizes a class's summed contributions (in
// {0..InferClasses·InferDigitMax}) back into {0..InferDigitMax}, so
// predictions decode in the digit range every other wire uses.
func inferLogit(s int) int { return clampDigit(s - 1) }

// inferLogitEnc reads the summed dense contributions off the
// InferPoolSpace grid: the logit bootstrap runs in InferSpace, where a
// space-InferPoolSpace sum appears scaled by InferSpace/InferPoolSpace.
func inferLogitEnc(v int) int { return inferLogit(v * InferPoolSpace / InferSpace) }

// clampDigit clamps v into the digit range {0..InferDigitMax}.
func clampDigit(v int) int {
	if v < 0 {
		return 0
	}
	if v > InferDigitMax {
		return InferDigitMax
	}
	return v
}

// BuildInfer appends one inference instance to the builder: features is
// the flat cell-major feature vector (length InferFeatures, each wire an
// InferSpace-encoded digit), and the returned wires are the InferClasses
// quantized class scores. The pipeline is
//
//	conv:  per (cell, filter) a packed fan-in-InferMarkers linear combo
//	       plus one activation bootstrap (bias folded into the table,
//	       output re-encoded onto the coarser InferPoolSpace grid),
//	pool:  per filter a free linear sum over cells (the ÷InferCells of
//	       the average folds into the next stage's tables),
//	dense: per filter one space-InferPoolSpace multi-value bootstrap
//	       whose InferClasses tables share the blind rotation
//	       (Builder.LUTFunc) at full single-LUT noise margin,
//	logit: per class a free linear sum of contributions plus one
//	       requantizing bootstrap back in InferSpace.
func BuildInfer(b *sched.Builder, features []sched.Wire) ([]sched.Wire, error) {
	if len(features) != InferFeatures {
		return nil, fmt.Errorf("workload: BuildInfer takes %d feature wires, got %d", InferFeatures, len(features))
	}
	// Convolution: conv[c][f] = act_f(Σ_m w[f][m]·x[c][m]).
	var conv [InferCells][InferFilters]sched.Wire
	for c := 0; c < InferCells; c++ {
		for f := 0; f < InferFilters; f++ {
			terms := make([]sched.Term, InferMarkers)
			for m := 0; m < InferMarkers; m++ {
				terms[m] = sched.Term{W: features[c*InferMarkers+m], C: int32(inferConvW[f][m])}
			}
			conv[c][f] = b.LUTFunc(b.Lin(0, terms...), InferSpace, inferConvEnc(f))[0]
		}
	}
	// Average pool + dense: pool[f] is a free sum; one blind rotation per
	// pooled filter then serves every class's contribution table.
	var contrib [InferFilters][]sched.Wire
	for f := 0; f < InferFilters; f++ {
		terms := make([]sched.Term, InferCells)
		for c := 0; c < InferCells; c++ {
			terms[c] = sched.Term{W: conv[c][f], C: 1}
		}
		pool := b.Lin(0, terms...)
		fs := make([]func(int) int, InferClasses)
		for k := range fs {
			fs[k] = inferDenseTab(f, k)
		}
		contrib[f] = b.LUTFunc(pool, InferPoolSpace, fs...)
	}
	// Logits: score[k] = logit(Σ_f contrib[f][k]).
	scores := make([]sched.Wire, InferClasses)
	for k := 0; k < InferClasses; k++ {
		terms := make([]sched.Term, InferFilters)
		for f := 0; f < InferFilters; f++ {
			terms[f] = sched.Term{W: contrib[f][k], C: 1}
		}
		scores[k] = b.LUTFunc(b.Lin(0, terms...), InferSpace, inferLogitEnc)[0]
	}
	return scores, nil
}

// BuildInferBatch builds a circuit running the model over batch feature
// vectors: inputs are batch·InferFeatures wires (vector-major), outputs
// batch·InferClasses score wires in the same order. All instances are
// independent, so each model stage is one wide scheduler level.
func BuildInferBatch(batch int) (*sched.Circuit, error) {
	if batch < 1 {
		return nil, fmt.Errorf("workload: inference batch %d < 1", batch)
	}
	b := sched.NewBuilder()
	features := b.Inputs(batch * InferFeatures)
	for i := 0; i < batch; i++ {
		scores, err := BuildInfer(b, features[i*InferFeatures:(i+1)*InferFeatures])
		if err != nil {
			return nil, err
		}
		b.Output(scores...)
	}
	return b.Build()
}

// InferReference computes the quantized cleartext class scores for one
// feature vector — the golden model encrypted inference must decode to.
// It mirrors BuildInfer's integer arithmetic exactly, table by table.
func InferReference(features []int) ([]int, error) {
	if len(features) != InferFeatures {
		return nil, fmt.Errorf("workload: InferReference takes %d features, got %d", InferFeatures, len(features))
	}
	for i, v := range features {
		if v < 0 || v > InferDigitMax {
			return nil, fmt.Errorf("workload: feature %d = %d outside {0..%d}", i, v, InferDigitMax)
		}
	}
	var conv [InferCells][InferFilters]int
	for c := 0; c < InferCells; c++ {
		for f := 0; f < InferFilters; f++ {
			sum := 0
			for m := 0; m < InferMarkers; m++ {
				sum += inferConvW[f][m] * features[c*InferMarkers+m]
			}
			conv[c][f] = inferConvAct(f)(sum)
		}
	}
	scores := make([]int, InferClasses)
	for k := 0; k < InferClasses; k++ {
		total := 0
		for f := 0; f < InferFilters; f++ {
			pool := 0
			for c := 0; c < InferCells; c++ {
				pool += conv[c][f]
			}
			total += inferDenseTab(f, k)(pool)
		}
		scores[k] = inferLogit(total)
	}
	return scores, nil
}

// InferPredict returns the predicted class of a score vector: the argmax,
// lowest class on ties.
func InferPredict(scores []int) int {
	best := 0
	for k := 1; k < len(scores); k++ {
		if scores[k] > scores[best] {
			best = k
		}
	}
	return best
}

// InferSweep enumerates the model's full input domain: every feature
// vector in {0..InferDigitMax}^InferFeatures, in lexicographic order.
// The domain is (InferDigitMax+1)^InferFeatures = 256 vectors — small
// enough that conformance can pin encrypted inference against the
// cleartext reference exhaustively rather than by sampling.
func InferSweep() [][]int {
	n := 1
	for i := 0; i < InferFeatures; i++ {
		n *= InferDigitMax + 1
	}
	sweep := make([][]int, n)
	for i := range sweep {
		v := make([]int, InferFeatures)
		rem := i
		for j := InferFeatures - 1; j >= 0; j-- {
			v[j] = rem % (InferDigitMax + 1)
			rem /= InferDigitMax + 1
		}
		sweep[i] = v
	}
	return sweep
}
