// Package sched compiles homomorphic circuits — dataflow graphs of boolean
// gates, programmable-bootstrap lookup tables, and free linear
// combinations — and executes them so that the streaming engine is fed
// whatever work is ready, the way the paper's epoch scheduler keeps the
// accelerator's datapath full.
//
// The sequential tfhe.Evaluator issues one PBS at a time; the engine of
// internal/engine only helps when someone hands it independent batches.
// This package is that someone: a Builder records the circuit as a DAG,
// and Compile records what execution needs — each PBS node's rank (the
// longest PBS path from it to an output, itself included) and the
// dependency tables (the users of every wire, the operands every node
// waits for). Execute then dispatches by readiness over any Executor —
// the in-process Runner, whose two dispatch kinds are the StreamingEngine's
// two operations, Gates and LUT, or the gate service's session, which
// embeds a Runner. A lookup is one thing at every layer: a group of k ≥ 1
// tables sharing one blind rotation, the plain LUT being the group of one
// (Builder.LUT) and a multi-value group the group of k (Builder.MultiLUT).
// Whenever the process's worker pool has a free CPU, Execute issues the
// ready nodes of the highest rank that share a test vector (every binary
// gate shares the sign test vector; lookup groups by exact table list);
// each completion unblocks its users, and linear nodes fold the moment
// their operands resolve. Rank first puts the long chains' heads ahead of
// the short branches, so the critical path never waits behind work that
// could run beside it.
//
// The ranks are also the plan: Compile puts the PBS nodes of each rank in
// one level, highest rank first, grouped per test vector. Every dispatch
// Execute issues is a subset of one level's dispatch, so the plan that
// Stats, Describe and the golden plan tests report is the one that runs,
// and a bound on its dispatches bounds every engine call.
//
// Every dispatch runs the exact per-item computation of the sequential
// evaluator (the engines are bitwise-identical to it by construction), and
// linear nodes are wrapping torus arithmetic, so scheduled execution is
// bitwise-identical to RunSequential for any engine configuration and any
// order in which dispatches complete.
package sched
