// Package server is the session-sharded FHE gate service: the layer that
// lets many network clients funnel encrypted gate and LUT work into the
// streaming PBS engines of internal/engine.
//
// The trust split follows the classic FHE service model: clients keep
// their secret keys and upload only evaluation keys and ciphertexts (in
// the internal/wire encoding); the server holds one session per client ID,
// each owning the client's evaluation keys and a private
// engine.StreamingEngine. Sessions are LRU-bounded, so a long-running
// server sheds the key material of idle clients instead of growing without
// limit.
//
// Within a session, concurrent requests are coalesced group-commit style:
// while one stream occupies the engine, compatible requests (same gate op,
// or same LUT) pile into a shared group, and the next leader submits the
// whole group as one stream — so the engine sees long streams even when
// clients send small batches. Backpressure is a bounded per-session slot
// count: when too many requests are queued, new ones block until the
// backlog drains (and are refused with ErrOverloaded once they have
// waited a minute). Per-session metrics
// (request/item/stream/coalesce counts plus the engine's aggregated
// tfhe.OpCounters) are exported via Stats and the HTTP stats endpoint.
//
// Sessions can be durable. A SessionStore (MemStore, or the crash-safe
// DiskStore opened via Open/Config.DataDir) turns the LRU into a warm
// tier: registration streams the exact uploaded key bytes into the store
// and commits them before the session becomes visible, eviction is
// transparent, and a warm miss restores the session from the store —
// singleflighted per client ID — with bitwise-identical results and no
// re-upload. DiskStore pairs
// CRC-checked key files with an append-only WAL (fsync-ordered so a
// record never points at missing bytes) and replays the longest valid
// prefix on open, truncating torn tails. Drain flips the server to
// draining — new work refused with ErrShuttingDown, in-flight streams
// run to completion — then closes the store; the healthz endpoint goes
// not-ready at the flip.
//
// The HTTP layer (Handler, Dial) frames the binary wire encoding in JSON:
// ciphertexts travel as base64 []byte fields, everything else as plain
// JSON — trivially debuggable with curl, with the hot bytes still in the
// canonical binary codec. The evaluation key, the one large object, is the
// exception: POST /v1/sessions/{client_id} takes its raw wire encoding as
// the body and streams it — the client encodes as the connection takes
// bytes, the server decodes chunk by chunk while teeing the same bytes
// into the store — so no side ever holds the encoded key whole, and
// restore reads a stored key back through the same decoder. Every non-2xx
// response carries a machine-readable code (see ErrorResponse), surfaced
// client-side as a typed *APIError; the Client transparently retries the
// two Temporary codes (overloaded, shutting_down) with bounded jittered
// backoff.
package server
