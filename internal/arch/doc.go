// Package arch models the Strix accelerator: the Homomorphic Streaming
// Cores with their five functional units (§V), the two-level memory system
// and NoC (§IV-B), the epoch scheduler with device-level and core-level
// batching (§IV-C), and the area/power model (Table III).
//
// Two engines coexist and are tested against each other:
//
//   - an analytic model (analytic.go): one Model per configuration and
//     parameter set, with the closed-form stage intervals derived from the
//     unit throughputs of §V and the epoch scheduler over them
//     (Model.RunPBS, Model.RunLayers), and
//   - a cycle-level simulator (hsc.go) that schedules every polynomial
//     through every pipelined functional unit and produces the timing
//     traces of Fig 8.
//
// Each formula is written once. The ablations (ablation.go) evaluate the
// same Model: the bootstrapping-key unrolling of §VII is a Model of ⌈n/2⌉
// iterations of UnrolledGGSWCount GGSWs each.
package arch
