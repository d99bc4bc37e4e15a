package server

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// The encrypted-inference service scenario: a client registers its eval
// key, uploads encrypted feature vectors, and gets encrypted class
// scores back, without the server ever seeing a plaintext. The model
// (workload.BuildInfer) is compiled server-side and executed through the
// session's group-commit path, so concurrent inference requests — and
// any other traffic whose dispatch keys match — coalesce into shared
// engine streams.

// InferBatch runs the built-in cellCNN-style inference model over a
// batch of encrypted feature vectors for clientID's session. features is
// vector-major: workload.InferFeatures ciphertexts per inference, each
// an InferSpace-encoded digit. The reply is vector-major too:
// workload.InferClasses encrypted class scores per inference, which
// decode to exactly workload.InferReference's cleartext scores.
// optimize first rewrites the model through the scheduler's optimizer
// pass pipeline (decode-identical, not bitwise-identical outputs).
func (s *Server) InferBatch(clientID string, features []tfhe.LWECiphertext, optimize bool) ([]tfhe.LWECiphertext, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	sess, err := s.session(clientID)
	if err != nil {
		return nil, err
	}
	defer sess.release()
	circ, schedule, err := sess.validateInfer(features, s.cfg, optimize)
	if err != nil {
		return nil, err
	}
	if err := sess.acquireSlot(); err != nil {
		return nil, err
	}
	defer sess.releaseSlot()
	return sched.Execute(circ, schedule, features, sess)
}

// validateInfer bounds an inference request and compiles the model for
// its batch size. The circuit is server-built from trusted code, so
// unlike validateCircuit there is no spec re-validation — only the
// request-shaped bounds (batch size, ciphertext dimensions) and the
// parameter-set fit of the model's multi-value stage.
func (s *session) validateInfer(features []tfhe.LWECiphertext, cfg Config, optimize bool) (*sched.Circuit, *sched.Schedule, error) {
	fail := func(err error) (*sched.Circuit, *sched.Schedule, error) {
		s.rejected.Add(1)
		return nil, nil, err
	}
	if len(features) == 0 || len(features)%workload.InferFeatures != 0 {
		return fail(fmt.Errorf("server: inference takes a non-empty multiple of %d feature ciphertexts, got %d",
			workload.InferFeatures, len(features)))
	}
	if len(features) > cfg.MaxBatch {
		return fail(fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(features), cfg.MaxBatch))
	}
	if err := s.params.ValidateMultiLUT(workload.InferPoolSpace, workload.InferClasses); err != nil {
		return fail(fmt.Errorf("server: inference model does not fit parameter set %s: %w", s.params.Name, err))
	}
	if err := s.checkDims(features); err != nil {
		return fail(err)
	}
	circ, err := workload.BuildInferBatch(len(features) / workload.InferFeatures)
	if err != nil {
		return fail(err)
	}
	schedule, err := s.compile(circ, optimize)
	if err != nil {
		return fail(err)
	}
	return circ, schedule, nil
}
