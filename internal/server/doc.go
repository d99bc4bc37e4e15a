// Package server is the session-sharded FHE gate service: the layer that
// lets many network clients funnel encrypted gate and LUT work into the
// streaming PBS engines of internal/engine.
//
// The trust split follows the classic FHE service model: clients keep
// their secret keys and upload only evaluation keys and ciphertexts (in
// the internal/wire encoding); the server holds one session per client ID,
// each owning the client's evaluation keys and an engine.StreamingEngine
// over them, a handle whose operations run on the process's one worker
// pool beside every other session's. Sessions are LRU-bounded, so a
// long-running server sheds the key material of idle clients instead of
// growing without limit.
//
// Every eval envelope is a sched.Circuit — a gate or lookup batch one
// level of n nodes — compiled for the session's
// parameter set, where sched applies the one noise rule, and run by
// sched.Execute with the session as executor (it embeds a sched.Runner
// over its engine), so concurrent requests and dispatches share the
// worker pool, which tiles them side by side. Backpressure is
// a bounded per-session slot count: when too many requests are queued,
// new ones block until the backlog drains (and are refused with
// ErrOverloaded once they have waited a minute). Per-session metrics (request/item/engine-call counts plus the
// engine's aggregated tfhe.OpCounters) are exported via Stats and the
// HTTP stats endpoint.
//
// Sessions can be durable. A SessionStore (MemStore, or the crash-safe
// DiskStore opened via Open/Config.DataDir) turns the LRU into a warm
// tier: registration streams the exact uploaded key bytes into the store
// and commits them before the session becomes visible, eviction is
// transparent, and a warm miss restores the session from the store —
// singleflighted per client ID — with bitwise-identical results and no
// re-upload. A stored key's bytes are the session's key: its slabs are
// views of them (wire.ViewEvalKey), held by reference (StoredKey) by the
// warm tier and by each request in flight, so a session holds its key
// once. DiskStore keeps one file per key, mapped read-only as the
// session's key, and the file is its own commit record: a trailer under
// its own CRC-32 names the client and records the key's length and CRC,
// and the file is renamed to its s<seq>.key name, and the directory
// synced, only once key and trailer are durable. Open keeps each client's
// newest key file and removes every other name. Drain flips the server
// to draining — new work refused with ErrShuttingDown, in-flight requests
// run to completion — then closes the store; the healthz endpoint goes
// not-ready at the flip.
//
// The HTTP layer (Handler, Dial) moves ciphertexts only as binary
// records and everything else as JSON. An evaluation, POST
// /v2/eval/{client_id}, is one frame each way (frame.go): a short prefix,
// the envelope's JSON header and the ciphertexts as contiguous records, so
// a batch is copied once into one backing array on each side. The
// evaluation key, the one large object, travels raw: POST
// /v1/sessions/{client_id} takes its wire encoding as the body and
// streams it — the client encodes as the connection takes
// bytes, the server streams it into the store and views the stored bytes
// as the key — so no side ever holds the key twice, and restore maps a
// stored key back without decoding it. Every non-2xx
// response carries a machine-readable code (see ErrorResponse), surfaced
// client-side as a typed *APIError; the Client transparently retries the
// two Temporary codes (overloaded, shutting_down) with bounded jittered
// backoff.
package server
