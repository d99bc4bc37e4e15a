// Package sched compiles homomorphic circuits — dataflow graphs of boolean
// gates, programmable-bootstrap lookup tables, and free linear
// combinations — into levelized schedules that keep the streaming engine
// saturated.
//
// The sequential tfhe.Evaluator issues one PBS at a time; the engine of
// internal/engine only helps when someone hands it big independent
// batches. This package is that someone: a Builder records the circuit as
// a DAG, Compile levelizes it into maximal dependency-free levels
// (longest-path depth over the PBS nodes, the epoch schedule of the
// paper's accelerator) and groups each level into one dispatch per test
// vector (all of the level's binary gates together, since they share the
// sign test vector and differ only in a free linear pre-stage; lookup
// tables by exact table). Execute then walks the schedule over any
// Executor — the in-process Runner, whose every dispatch kind is a single
// engine.Ops call on the StreamingEngine, or the gate service's
// group-commit session path.
//
// Every dispatch runs the exact per-item computation of the sequential
// evaluator (the engines are bitwise-identical to it by construction), and
// linear nodes are wrapping torus arithmetic, so scheduled execution is
// bitwise-identical to RunSequential for any engine configuration.
package sched
