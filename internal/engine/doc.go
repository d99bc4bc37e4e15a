// Package engine provides batch-bootstrapping engines: the software
// counterpart of the Strix accelerator's batch execution model. The
// accelerator's whole throughput story (§III of the paper) rests on
// batching independent programmable bootstrappings across many ciphertexts;
// this package gives the functional TFHE library the same shape, so
// measured software PBS/s can sit next to the performance model's
// predicted PBS/s on the same axis.
//
// There is one operation vocabulary and two executors under it. Ops
// (ops.go) spells each operation once, as data: the test vector the batch
// shares, a per-item linear prepare stage (which may finish the item, as
// the free NOT gate does), the extract fan-out (one output, or k for a
// multi-value PBS), and whether to keyswitch. Gates, LUT, MultiLUT and
// Bootstrap are defined on it, with operand validation, the lock that
// serializes operations, and counter aggregation. Each engine embeds Ops
// and adds only a constructor and one exec:
//
//   - Engine is the flat worker pool: each worker takes a chunk of items
//     through its whole PBS(+KS) end to end, as one tile. Workers claim
//     chunks from an atomic cursor, which load-balances the tail without
//     a scheduler.
//   - StreamingEngine (pipeline.go) mirrors the paper's streaming
//     architecture with two-level ciphertext batching (§IV): tiles of
//     ciphertexts flow through channel-connected specialized stages
//     (modswitch → blind rotate → sample extract → fused keyswitch), and
//     the encoded test vector/LUT is shared by the whole stream.
//
// The tile is the unit of both: a run of consecutive items that share one
// pass over the evaluation key, the only amortisation TFHE, which cannot
// pack, allows (tfhe.Evaluator.BlindRotateTile, KeySwitchTile).
//
// Each worker goroutine owns a private tfhe.Evaluator (evaluators carry
// scratch buffers and must not be shared), all built from one shared,
// read-only key set. Both executors compose the same tfhe stage
// primitives per item, in the sequential evaluator's order, and every
// server-side TFHE operation is deterministic, so both return results
// bitwise identical to the sequential evaluator for any worker or stage
// configuration.
package engine
