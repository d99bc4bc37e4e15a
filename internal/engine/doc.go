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
// finish the item, as the free NOT gate does), the extract fan-out (one
// output, or k for a multi-value PBS), and whether to keyswitch. Gates,
// LUT, MultiLUT and Bootstrap are defined there, with operand validation,
// the lock that serializes operations, and counter aggregation. The
// executor (pipeline.go, exec) mirrors the paper's streaming architecture
// with two-level ciphertext
// batching (§IV), tiles of ciphertexts flowing through channel-connected
// specialized stages (modswitch → blind rotate → sample extract → fused
// keyswitch), with the encoded test vector/LUT shared by the whole stream.
//
// The tile is the unit of batching: a run of consecutive items that share
// one pass over the evaluation key, the only amortisation TFHE, which
// cannot pack, allows (tfhe.Evaluator.BlindRotateTile, KeySwitchTile).
// Spent tiles are recycled, so every PBS in the process runs under one
// tile discipline.
//
// Each stage worker owns a private tfhe.Evaluator (evaluators carry
// scratch buffers and must not be shared), all built from one shared,
// read-only key set. The stages compose the same tfhe stage primitives per
// item, in the sequential evaluator's order, and every server-side TFHE
// operation is deterministic, so results are bitwise identical to the
// sequential evaluator for any worker or stage configuration.
package engine
