// Package intops builds multi-digit encrypted integer arithmetic on top of
// the TFHE programmable bootstrap — the "operations for integer and
// fixed-point numbers" extension of TFHE the paper cites (§II-B, refs
// [34]-[38]). Integers are encrypted digit-wise, in the radix the one
// noise rule admits at the parameter set (For: 4 over space 16 at the
// test set and set IV, 2 over space 4 at sets I–III); carry propagation
// and multiplication are evaluated with PBS lookup tables, so every digit
// operation is exactly the PBS+KS workload the Strix accelerator batches.
//
// A Radix holds only its base; For is its one source, and its message
// space follows from the base. Addition and multiplication are sched
// circuits (Radix.BuildAdd, Radix.BuildMul, Radix.MulCircuit). The same
// DAG runs node by node (sched.RunSequential) or dispatched across the
// streaming engine by a sched.Runner, bitwise identically. The wide dispatches come from the
// carry-chain structure: digit reductions of different positions and the
// partial products of a multiply are mutually independent.
package intops
