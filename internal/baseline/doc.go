// Package baseline models the platforms Strix is compared against in the
// paper's evaluation: the Concrete CPU library (Fig 1, Table V), the NuFHE
// GPU library with its device-level batching and blind-rotation
// fragmentation (Fig 2, Table V), and the published FPGA/ASIC comparators
// (Table V).
//
// Each platform formula is written once here: equation (1) with the
// launch overhead (GPUModel.RunPBS), the CPU's ⌈l/threads⌉ PBS latencies
// per dependent layer (CPUModel.RunLayers), and the N·log2(N)
// extrapolation to degrees beyond the measured ones (fftScaled).
package baseline
