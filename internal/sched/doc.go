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
// the in-process Runner, whose every dispatch kind is a single operation
// of the StreamingEngine, or the gate service's session, which embeds a
// Runner. Whenever the process's worker pool has a free CPU, it issues the
// ready nodes of the highest rank that share a test vector (every binary
// gate shares the sign test vector; lookup tables group by exact table);
// each completion unblocks its users, and linear nodes fold the moment
// their operands resolve. Rank first puts the long chains' heads ahead of
// the short branches, so the critical path never waits behind work that
// could run beside it.
//
// Compile also levelizes the circuit into maximal dependency-free levels
// (longest-path PBS depth from the inputs), grouped per test vector. The
// levels are a report — Stats, Describe and the golden plan tests — and
// not the order Execute runs in.
//
// Every dispatch runs the exact per-item computation of the sequential
// evaluator (the engines are bitwise-identical to it by construction), and
// linear nodes are wrapping torus arithmetic, so scheduled execution is
// bitwise-identical to RunSequential for any engine configuration and any
// order in which dispatches complete.
package sched
