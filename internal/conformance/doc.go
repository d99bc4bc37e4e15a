// Package conformance cross-checks every public FHE operation — boolean
// gates, lookup tables, multi-value lookup tables, and whole circuits —
// across the nine execution backends of the repository: the sequential
// evaluator, the streaming engine, the levelizing circuit scheduler (plain
// and with the optimizer), the networked gate service, a second gate
// service whose session was restored from a drained durable store (the
// crash/restart path) rather than registered, the sequential evaluator on
// the reference FFT kernels, a two-node routed cluster, and the
// encrypted-inference service scenario.
//
// Server-side TFHE is deterministic, and every backend executes the same
// per-ciphertext computation in the same order, so conformance is defined
// as bitwise equality: for identical inputs under identical keys, every
// backend must produce ciphertexts identical to the sequential reference
// bit for bit. The two backends that run the optimizer re-synthesize
// bootstraps and promise identical decoded plaintexts instead. The
// table-driven suite in this package runs each (op, backend) pair under
// the race detector in CI, which is what lets the engine and the service
// evolve aggressively without silently forking semantics.
package conformance
