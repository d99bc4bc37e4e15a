// Package engine provides the batch-bootstrapping engine: the software
// counterpart of the Strix accelerator's batch execution model. The
// accelerator's whole throughput story (§III of the paper) rests on
// batching independent programmable bootstrappings across many ciphertexts;
// this package gives the functional TFHE library the same shape, so
// measured software PBS/s can sit next to the performance model's
// predicted PBS/s on the same axis.
//
// There is one operation vocabulary and one executor under it, both on
// StreamingEngine. ops.go spells each operation once, as data: the test
// vector the batch shares, a per-item linear prepare stage (which may
// finish the item, as the free NOT gate does) and the extract fan-out
// (one output, or k for a lookup of k tables). The vocabulary is two
// operations, Gates and LUT, defined there with operand validation, and
// every item of either ends in a keyswitch, as every PBS of Strix runs
// down one PBS→KS datapath. A lookup is a group of k ≥ 1 tables sharing
// one blind rotation (multi-value PBS), bitwise tfhe.Evaluator.EvalLUTKS,
// the one lookup of every layer; one table is the plain lookup. The executor (pipeline.go, exec) mirrors the
// paper's streaming architecture with two-level ciphertext batching
// (§IV): workers, the streaming cores, each claim a tile of consecutive
// items and run it start to finish — prepare (linear op, modswitch,
// initial rotation) → blind rotate → sample extract → fused keyswitch —
// with the encoded test vector/LUT shared by every worker.
//
// The tile is the unit of batching: a run of consecutive items that share
// one pass over the evaluation key, the only amortisation TFHE, which
// cannot pack, allows (tfhe.Evaluator.BlindRotateTile, KeySwitchTile).
//
// Strix has one set of cores fed by many ciphertext sources, and so does
// the process: one worker pool, shared by every engine, is both its
// workers and its CPU budget. An engine is a handle on a key set; an
// operation borrows workers for its tiles and passes them the keys. An
// operation alone tiles min(⌈n/W⌉, cap); one behind others divides by the
// CPUs they leave free instead, so a four-gate request behind another
// session's runs as one tile of four, one key pass. A caller that issues
// several operations at once, as the scheduler does, claims CPUs from
// the same budget ahead of them (Claim) and runs each operation on its
// claim (StreamingEngine.On). Each worker owns a
// private tfhe.Evaluator that holds no key (evaluators carry scratch
// buffers and must not be shared) and keeps its tile's slots from one
// tile to the next. The workers compose the same tfhe stage primitives per
// item, in the sequential evaluator's order, and every server-side TFHE
// operation is deterministic, so results are bitwise identical to the
// sequential evaluator for any worker count or tile size.
package engine
