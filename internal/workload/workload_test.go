package workload

import (
	"testing"

	"repro/internal/tfhe"
)

func TestDeepNNLayerStructure(t *testing.T) {
	nn, err := NewDeepNN(20, tfhe.ParamsII)
	if err != nil {
		t.Fatal(err)
	}
	layers := nn.LayerPBS()
	if len(layers) != 20 {
		t.Fatalf("NN-20 has %d layers", len(layers))
	}
	if layers[0] != 840 {
		t.Errorf("conv layer PBS = %d, want 840 ([1,2,21,20])", layers[0])
	}
	for i := 1; i < 20; i++ {
		if layers[i] != 92 {
			t.Errorf("dense layer %d PBS = %d, want 92", i, layers[i])
		}
	}
	if nn.TotalPBS() != 840+19*92 {
		t.Errorf("total PBS = %d", nn.TotalPBS())
	}
}

func TestDeepNNDepthValidation(t *testing.T) {
	if _, err := NewDeepNN(1, tfhe.ParamsII); err == nil {
		t.Error("depth 1 should error")
	}
}

func TestNNParams(t *testing.T) {
	for _, n := range []int{1024, 2048, 4096} {
		p, err := NNParams(n)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if p.N != n {
			t.Errorf("NNParams(%d).N = %d", n, p.N)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("N=%d params invalid: %v", n, err)
		}
	}
	if _, err := NNParams(512); err == nil {
		t.Error("unsupported N should error")
	}
}

func TestFig7ModelsCount(t *testing.T) {
	models, err := Fig7Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 9 {
		t.Fatalf("Fig 7 has %d combinations, want 9", len(models))
	}
	// Deeper models must have strictly more PBS.
	if models[0].TotalPBS() >= models[8].TotalPBS() {
		t.Error("NN-100 should have more PBS than NN-20")
	}
}
