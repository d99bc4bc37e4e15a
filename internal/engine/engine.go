package engine

import "repro/internal/tfhe"

// Engine, Config, New, BatchGate and StreamGate are the names the
// benchmark in benchmark/ compiles against, and they are read only there:
// every other caller uses StreamingEngine, StreamConfig, NewStreaming and
// Gates. ROADMAP item 2 deletes them when it re-points the benchmark.
type (
	// Engine is StreamingEngine, under the name benchmark/ reads.
	Engine = StreamingEngine
	// Config is StreamConfig, under the name benchmark/ reads.
	Config = StreamConfig
)

// New is NewStreaming, under the name benchmark/ reads.
func New(ek tfhe.EvaluationKeys, cfg Config) *Engine { return NewStreaming(ek, cfg) }

// BatchGate is Gates with one op for every pair, read by benchmark/.
func (s *StreamingEngine) BatchGate(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return s.Gates(op.Repeat(len(a)), a, b)
}

// StreamGate is Gates with one op for every pair, read by benchmark/.
func (s *StreamingEngine) StreamGate(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return s.Gates(op.Repeat(len(a)), a, b)
}
