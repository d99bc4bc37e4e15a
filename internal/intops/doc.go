// Package intops builds multi-digit encrypted integer arithmetic on top of
// the TFHE programmable bootstrap — the "operations for integer and
// fixed-point numbers" extension of TFHE the paper cites (§II-B, refs
// [34]-[38]). Integers are encrypted digit-wise in radix Base; carry
// propagation and multiplication are evaluated with PBS lookup tables, so
// every digit operation is exactly the PBS+KS workload the Strix
// accelerator batches.
//
// Addition and multiplication are sched circuits (BuildAdd, BuildMul,
// MulCircuit). The same DAG runs node by node (sched.RunSequential) or
// dispatched across the streaming engine by a sched.Runner, bitwise
// identically. The wide dispatches come from the carry-chain structure:
// digit reductions of different positions and the partial products of a
// multiply are mutually independent.
package intops
