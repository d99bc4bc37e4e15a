package workload

import (
	"fmt"

	"repro/internal/tfhe"
)

// DeepNN describes one Zama Deep-NN model (ref [34] of the paper): a
// 28×28 encrypted input, one 10×11 convolution producing [1,2,21,20], then
// dense layers of 92 neurons, with a PBS-evaluated ReLU after every layer.
type DeepNN struct {
	Name   string
	Depth  int // total layer count (NN-20 → 20)
	Params tfhe.Params
}

// Zama Deep-NN geometry constants from [34] as quoted in §VI-C.
const (
	ConvOutputs  = 1 * 2 * 21 * 20
	DenseNeurons = 92
)

// NewDeepNN builds the model descriptor. depth must be >= 2 (one conv +
// at least one dense layer).
func NewDeepNN(depth int, p tfhe.Params) (DeepNN, error) {
	if depth < 2 {
		return DeepNN{}, fmt.Errorf("workload: NN depth %d must be >= 2", depth)
	}
	return DeepNN{
		Name:   fmt.Sprintf("NN-%d", depth),
		Depth:  depth,
		Params: p,
	}, nil
}

// LayerPBS returns the PBS count of every layer in order: the convolution
// activates ConvOutputs ReLUs, each subsequent dense layer DenseNeurons.
func (nn DeepNN) LayerPBS() []int {
	layers := make([]int, nn.Depth)
	layers[0] = ConvOutputs
	for i := 1; i < nn.Depth; i++ {
		layers[i] = DenseNeurons
	}
	return layers
}

// TotalPBS returns the total programmable bootstrap count of one inference.
func (nn DeepNN) TotalPBS() int {
	total := 0
	for _, l := range nn.LayerPBS() {
		total += l
	}
	return total
}

// NNParams returns the TFHE parameters for the Fig 7 polynomial degrees.
// The paper reuses the parameters of [34] with N = 1024, 2048, 4096;
// N=1024 and N=2048 coincide with the paper's sets II and III, and N=4096
// extends set III (same gadget and key noise, doubled degree, adjusted n).
func NNParams(n int) (tfhe.Params, error) {
	switch n {
	case 1024:
		return tfhe.ParamsII, nil
	case 2048:
		return tfhe.ParamsIII, nil
	case 4096:
		p := tfhe.ParamsIII
		p.Name = "NN4096"
		p.N = 4096
		p.SmallN = 700
		return p, nil
	default:
		return tfhe.Params{}, fmt.Errorf("workload: no NN parameters for N=%d", n)
	}
}

// Fig7Models enumerates the nine (model, N) combinations of Fig 7.
func Fig7Models() ([]DeepNN, error) {
	var out []DeepNN
	for _, depth := range []int{20, 50, 100} {
		for _, n := range []int{1024, 2048, 4096} {
			p, err := NNParams(n)
			if err != nil {
				return nil, err
			}
			nn, err := NewDeepNN(depth, p)
			if err != nil {
				return nil, err
			}
			out = append(out, nn)
		}
	}
	return out, nil
}
