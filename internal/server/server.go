package server

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// Config tunes the gate service.
type Config struct {
	// MaxSessions bounds how many client sessions (eval keys + engines)
	// are cached in the warm tier; the least-recently-used session is
	// evicted beyond it. With a Store, eviction is transparent — the next
	// request restores the session from persisted key material. 0 means 64.
	MaxSessions int
	// MaxPending is the per-session backpressure bound: at most this many
	// requests may be queued or in flight per session; further requests
	// wait up to queueTimeout for the backlog to drain, then are refused
	// with ErrOverloaded. 0 means 64.
	MaxPending int
	// MaxBatch caps the ciphertext count of a single request. 0 means 4096.
	MaxBatch int
	// Store is the durable tier behind the warm session LRU: registered
	// eval keys are written through to it and evicted or restarted
	// sessions are restored from it on demand. nil means no persistence
	// (sessions live and die with the warm tier, the pre-store behavior).
	Store SessionStore
	// DataDir, when non-empty and Store is nil, makes Open put a
	// DiskStore at this directory. New (which cannot fail) rejects a
	// non-empty DataDir — use Open.
	DataDir string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	return c
}

const (
	// maxCircuitNodes caps the node count, and the output count, of a
	// circuit envelope.
	maxCircuitNodes = 4096
	// queueTimeout bounds how long a request may wait for a session slot
	// before being refused with ErrOverloaded (HTTP 503, code
	// "overloaded") — the signal well-behaved clients back off on.
	queueTimeout = time.Minute
)

// MaxClientIDBytes bounds a client ID. IDs are keys in the session map,
// the WAL, and on-disk manifests; a megabyte "ID" is hostile input, not
// a name.
const MaxClientIDBytes = 256

// Service errors. ErrUnknownSession means no session — warm or persisted
// — exists for the client ID; ErrSessionEvicted (errors.go) narrows that
// to "the warm tier dropped it and no store can bring it back".
var (
	ErrUnknownSession = errors.New("server: unknown session: register an eval key first")
	ErrBatchTooLarge  = errors.New("server: request exceeds the batch size limit")
	ErrEmptyClientID  = errors.New("server: client id must be non-empty")
)

// Server is the session-sharded gate service. All methods are safe for
// concurrent use.
type Server struct {
	cfg   Config
	store SessionStore // nil when running without persistence

	mu        sync.Mutex
	sessions  map[string]*session
	lru       *list.List            // of *session; front = most recently used
	loading   map[string]*restoring // in-flight store restores, by ID
	evicted   *evictSet
	evictions atomic.Int64
	restores  atomic.Int64

	// draining flips once, under drainMu, so begin's check-then-Add is
	// race-free against Drain's flip-then-Wait.
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a gate service. cfg.DataDir must be empty (New cannot open
// a disk store because it cannot fail) — use Open for that, or pass an
// already-open store in cfg.Store.
func New(cfg Config) *Server {
	if cfg.DataDir != "" && cfg.Store == nil {
		panic("server: Config.DataDir requires server.Open")
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		store:    cfg.Store,
		sessions: make(map[string]*session),
		lru:      list.New(),
		loading:  make(map[string]*restoring),
		evicted:  newEvictSet(4 * cfg.MaxSessions),
	}
}

// Open builds a gate service with durability: when cfg.Store is nil and
// cfg.DataDir is set, it opens (creating or crash-recovering) a DiskStore
// there. Previously persisted sessions are immediately servable — the
// first request for one restores it into the warm tier.
func Open(cfg Config) (*Server, error) {
	if cfg.Store == nil && cfg.DataDir != "" {
		store, err := OpenDiskStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		cfg.Store = store
	}
	cfg.DataDir = ""
	return New(cfg), nil
}

// Store returns the durable tier, or nil when running without one.
func (s *Server) Store() SessionStore { return s.store }

// begin admits one request unless the server is draining; every admitted
// request must call end. The read lock pairs with Drain's write lock so
// the draining check and the in-flight count move together.
func (s *Server) begin() error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return ErrShuttingDown
	}
	s.inflight.Add(1)
	return nil
}

// end retires one admitted request.
func (s *Server) end() { s.inflight.Done() }

// Draining reports whether Drain has been called — the readiness signal
// behind /v1/healthz.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the service down: new requests (including ones
// arriving mid-drain) are refused with ErrShuttingDown, every admitted
// request runs to completion, then the warm tier lets its sessions' keys
// go, and the session store is flushed and closed. Drain is idempotent
// and safe to call concurrently; it returns once the server is quiesced
// and durable.
func (s *Server) Drain() error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	s.inflight.Wait()
	s.mu.Lock()
	for id, sess := range s.sessions {
		delete(s.sessions, id)
		sess.release()
	}
	s.lru.Init()
	s.mu.Unlock()
	if s.store == nil {
		return nil
	}
	if err := s.store.Close(); err != nil {
		return fmt.Errorf("%w: %v", errStoreFailure, err)
	}
	return nil
}

// validateClientID rejects empty and absurdly long IDs, and the two dot
// segments: every HTTP hop cleans "/v1/sessions/." into the listing's
// path, so a session under that name could be neither addressed nor
// deleted over the wire.
func validateClientID(clientID string) error {
	if clientID == "" {
		return ErrEmptyClientID
	}
	if dotSegment(clientID) {
		return fmt.Errorf("server: client id %q is a path dot segment", clientID)
	}
	if len(clientID) > MaxClientIDBytes {
		return fmt.Errorf("server: client id is %d bytes, max %d", len(clientID), MaxClientIDBytes)
	}
	return nil
}

// RegisterKey creates (or replaces) the session for clientID from its
// evaluation keys. The keys are validated structurally before any engine
// is built — they typically arrive from an untrusted network peer. With a
// Store, the wire encoding of the keys is made durable before the session
// becomes visible, so a crash after a successful RegisterKey never loses
// the registration, and the session computes on the stored bytes; without
// one it computes on ek itself.
func (s *Server) RegisterKey(clientID string, ek tfhe.EvaluationKeys) error {
	enc, size, err := wire.EncodeEvalKey(ek) // validates ek
	if err != nil {
		return fmt.Errorf("server: rejecting eval key for %q: %w", clientID, err)
	}
	_, err = s.register(clientID, size, enc, &ek)
	return err
}

// RegisterKeyEncoded registers a wire-encoded evaluation key. Returns the
// decoded parameter set for the acknowledgment.
func (s *Server) RegisterKeyEncoded(clientID string, blob []byte) (tfhe.Params, error) {
	return s.registerFrom(clientID, int64(len(blob)), bytes.NewReader(blob))
}

// registerFrom registers the size-byte wire encoding that body yields,
// without ever holding it but where the session will use it: in the
// store, or in memory read straight from the stream. It is the path of
// the HTTP upload.
func (s *Server) registerFrom(clientID string, size int64, body io.Reader) (tfhe.Params, error) {
	return s.register(clientID, size, body, nil)
}

// upload is the body of a key registration: the size bytes its sender
// declared. A body that fails, ends short or runs on past size is the
// sender's fault, and err records it, so that a failed Put is not taken
// for the store's fault.
type upload struct {
	r    io.Reader
	left int64
	err  error
}

// Read implements io.Reader.
func (u *upload) Read(p []byte) (int, error) {
	if u.err != nil {
		return 0, u.err
	}
	n, err := u.r.Read(p)
	u.left -= int64(n)
	switch {
	case u.left < 0:
		u.err = errors.New("server: key upload runs past its declared size")
	case err == io.EOF && u.left > 0:
		u.err = fmt.Errorf("server: key upload ends %d bytes short of its declared size", u.left)
	case err != nil && err != io.EOF:
		u.err = err
	}
	if u.err != nil {
		return n, u.err
	}
	return n, err
}

// register is the one registration path: admit, check the ID and then the
// key's header against size — all before any storage is written or
// reserved for it — then bring the key's bytes where the session will use
// them, view them as the key (wire.ViewEvalKey), commit them to the store,
// and only then make the session visible. ek, when the caller holds the
// keys already, is what a storeless session computes on. Nothing changes
// unless every step succeeds: the ID's previous session keeps serving.
func (s *Server) register(clientID string, size int64, body io.Reader, ek *tfhe.EvaluationKeys) (tfhe.Params, error) {
	if err := s.begin(); err != nil {
		return tfhe.Params{}, err
	}
	defer s.end()
	if err := validateClientID(clientID); err != nil {
		return tfhe.Params{}, err
	}
	hdr, err := wire.ReadEvalKeyHeader(body, size)
	if err != nil {
		return tfhe.Params{}, fmt.Errorf("server: bad eval key: %w", err)
	}
	src := &upload{r: io.MultiReader(bytes.NewReader(hdr), body), left: size}
	var keys tfhe.EvaluationKeys
	var stored *StoredKey
	switch {
	case s.store != nil:
		// Durable-first: the WAL record commits before the session is
		// visible, so no acknowledged registration can be lost.
		var viewErr error
		stored, err = s.store.Put(clientID, size, src, func(b []byte) (tfhe.Params, error) {
			keys, viewErr = wire.ViewEvalKey(b)
			return keys.Params, viewErr
		})
		switch {
		case src.err != nil:
			err = src.err
		case err != nil && viewErr == nil:
			return tfhe.Params{}, fmt.Errorf("%w: persisting key for %q: %v", errStoreFailure, clientID, err)
		}
	case ek != nil:
		// Encoding the caller's keys to nowhere checks them as the view
		// would have.
		_, err = io.Copy(io.Discard, src)
		keys = *ek
	default:
		var b []byte
		if b, err = wire.ReadSized(src, size); err == nil {
			keys, err = wire.ViewEvalKey(b)
		}
	}
	if err != nil {
		return tfhe.Params{}, fmt.Errorf("server: bad eval key: %w", err)
	}
	sess := newSession(clientID, keys, stored, s.cfg)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.evicted.remove(clientID)
	s.install(sess)
	s.supersede(clientID)
	return keys.Params, nil
}

// install adds a built session to the warm tier, in place of any session
// of its ID, and applies the LRU bound. Called with mu held.
func (s *Server) install(sess *session) {
	if old, ok := s.sessions[sess.id]; ok {
		s.lru.Remove(old.elem)
		old.release()
	}
	sess.elem = s.lru.PushFront(sess)
	s.sessions[sess.id] = sess
	for len(s.sessions) > s.cfg.MaxSessions {
		oldest := s.lru.Back()
		victim := oldest.Value.(*session)
		s.lru.Remove(oldest)
		delete(s.sessions, victim.id)
		victim.release()
		s.evictions.Add(1)
		if s.store == nil {
			// Without a durable tier the key material is gone; remember
			// the ID so the client gets session_evicted, not the generic
			// unknown_session, and knows a re-upload is needed.
			s.evicted.add(victim.id)
		}
	}
}

// restoring is one in-flight store restore. stale marks that a register
// or DeleteSession of its ID came after the restore began: what it read
// may be a key that is no longer current.
type restoring struct {
	done  chan struct{} // closed when the restore finishes
	stale bool
}

// supersede marks an in-flight restore of clientID stale, so that it
// discards what it built. Called with mu held.
func (s *Server) supersede(clientID string) {
	if r, ok := s.loading[clientID]; ok {
		r.stale = true
	}
}

// session looks up and LRU-touches a session, restoring it from the
// durable tier on a warm miss, and holds its key for the caller, who must
// release the session when done with it. Concurrent misses for one ID
// share a single restore (each maps and checksums the key file). A
// restore overtaken by a register or delete of its ID is discarded and
// the lookup starts over.
func (s *Server) session(clientID string) (*session, error) {
	for {
		s.mu.Lock()
		if sess, ok := s.sessions[clientID]; ok {
			s.lru.MoveToFront(sess.elem)
			sess.hold()
			s.mu.Unlock()
			return sess, nil
		}
		if s.store == nil {
			wasEvicted := s.evicted.has(clientID)
			s.mu.Unlock()
			if wasEvicted {
				return nil, ErrSessionEvicted
			}
			return nil, ErrUnknownSession
		}
		if r, ok := s.loading[clientID]; ok {
			// Another request is restoring this session: wait for it,
			// then re-check the warm tier.
			s.mu.Unlock()
			<-r.done
			continue
		}
		r := &restoring{done: make(chan struct{})}
		s.loading[clientID] = r
		s.mu.Unlock()

		sess, err := s.restore(clientID)
		s.mu.Lock()
		delete(s.loading, clientID)
		close(r.done)
		if r.stale {
			s.mu.Unlock()
			if sess != nil {
				sess.release()
			}
			continue
		}
		if sess != nil {
			s.install(sess)
			sess.hold()
		}
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return sess, nil
	}
}

// restore rebuilds a session from its persisted key material: the store
// hands out the stored bytes (DiskStore maps the key file and checks its
// CRC over the mapping), the key is viewed in them (which re-validates
// it, without a copy), and the session is a handle on that view. The
// restored session computes on byte-identical key material, so its gate
// results are bitwise identical to the pre-restart session's. The
// session holds the store's reference to the key.
func (s *Server) restore(clientID string) (*session, error) {
	key, err := s.store.Get(clientID)
	if errors.Is(err, ErrNotPersisted) {
		return nil, ErrUnknownSession
	}
	if err != nil {
		return nil, fmt.Errorf("%w: restoring %q: %v", errStoreFailure, clientID, err)
	}
	ek, err := wire.ViewEvalKey(key.Bytes())
	if err != nil {
		key.Release()
		return nil, fmt.Errorf("%w: persisted key for %q is not a valid key: %v", errStoreFailure, clientID, err)
	}
	s.restores.Add(1)
	return newSession(clientID, ek, key, s.cfg), nil
}

// DeleteSession explicitly evicts clientID everywhere: the durable tier
// records a tombstone and the warm session is dropped (in-flight work on
// it still completes), in that order, so that no restore can bring the
// key back. It reports which tiers held the session; when neither did,
// the error is ErrUnknownSession.
func (s *Server) DeleteSession(clientID string) (warm, persisted bool, err error) {
	if err := s.begin(); err != nil {
		return false, false, err
	}
	defer s.end()
	if err := validateClientID(clientID); err != nil {
		return false, false, err
	}
	if s.store != nil {
		persisted, err = s.store.Delete(clientID)
	}
	s.mu.Lock()
	sess, ok := s.sessions[clientID]
	if ok {
		warm = true
		s.lru.Remove(sess.elem)
		delete(s.sessions, clientID)
		sess.release()
	}
	// A deleted session is forgotten, not evicted: later requests get
	// unknown_session.
	s.evicted.remove(clientID)
	s.supersede(clientID)
	s.mu.Unlock()
	if err != nil {
		return warm, false, fmt.Errorf("%w: deleting %q: %v", errStoreFailure, clientID, err)
	}
	if !warm && !persisted {
		return false, false, ErrUnknownSession
	}
	return warm, persisted, nil
}

// Sessions returns the warm-tier client IDs, most recently used first.
func (s *Server) Sessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, s.lru.Len())
	for e := s.lru.Front(); e != nil; e = e.Next() {
		ids = append(ids, e.Value.(*session).id)
	}
	return ids
}

// SessionInfo is one row of the session listing: identity, key size, and
// which tiers (warm engine cache, durable store) hold the session.
type SessionInfo struct {
	ID        string `json:"id"`
	Params    string `json:"params"`
	KeyBytes  int64  `json:"key_bytes"`
	Warm      bool   `json:"warm"`
	Persisted bool   `json:"persisted"`
}

// SessionList lists every live session across both tiers: warm sessions
// first (most recently used first), then store-only sessions sorted by
// ID. Key sizes are the exact wire-encoded evaluation-key sizes.
func (s *Server) SessionList() []SessionInfo {
	persisted := map[string]StoreEntry{}
	if s.store != nil {
		for _, e := range s.store.List() {
			persisted[e.ClientID] = e
		}
	}
	s.mu.Lock()
	infos := make([]SessionInfo, 0, s.lru.Len()+len(persisted))
	for e := s.lru.Front(); e != nil; e = e.Next() {
		sess := e.Value.(*session)
		info := SessionInfo{ID: sess.id, Params: sess.params.Name, Warm: true}
		if pe, ok := persisted[sess.id]; ok {
			info.Persisted = true
			info.KeyBytes = pe.KeyBytes
			delete(persisted, sess.id)
		} else if n, ok := wire.EvalKeySize(sess.params); ok {
			info.KeyBytes = n
		}
		infos = append(infos, info)
	}
	s.mu.Unlock()
	cold := make([]SessionInfo, 0, len(persisted))
	for _, pe := range persisted {
		cold = append(cold, SessionInfo{ID: pe.ClientID, Params: pe.Params, KeyBytes: pe.KeyBytes, Persisted: true})
	}
	sortSessionInfos(cold)
	return append(infos, cold...)
}

// sortSessionInfos orders rows by ID.
func sortSessionInfos(infos []SessionInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

// Restores returns how many sessions were rebuilt from the durable tier.
func (s *Server) Restores() int64 { return s.restores.Load() }

// GateBatch evaluates out[i] = op(a[i], b[i]) on clientID's session; for
// the unary NOT, b must be nil. It is the gate envelope for in-process
// callers, on Eval's one path.
func (s *Server) GateBatch(clientID string, op engine.GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	out, _, err := s.evalDecoded(EvalRequest{ClientID: clientID, Kind: EvalKindGate}, evalOperands{op, a, b})
	return out, err
}

// SessionStats is one session's metrics snapshot.
type SessionStats struct {
	ID        string          `json:"id"`
	Params    string          `json:"params"`
	Requests  int64           `json:"requests"`  // client requests run; a circuit is one
	Items     int64           `json:"items"`     // input ciphertexts of the engine calls
	Streams   int64           `json:"streams"`   // engine calls, one per dispatch; a NOT batch makes none
	Coalesced int64           `json:"coalesced"` // always 0; read only by benchmark/ until ROADMAP item 2 deletes it
	Rejected  int64           `json:"rejected"`  // requests refused by validation or overload
	Pending   int             `json:"pending"`   // requests currently queued or in flight
	Counters  tfhe.OpCounters `json:"counters"`  // engine op mix as of the last completed stream
}

// Stats is the whole service's metrics snapshot.
type Stats struct {
	MaxSessions int            `json:"max_sessions"`
	Evictions   int64          `json:"evictions"`
	Restores    int64          `json:"restores"`  // sessions rebuilt from the durable tier
	Persisted   int            `json:"persisted"` // sessions in the durable tier
	Draining    bool           `json:"draining"`
	Sessions    []SessionStats `json:"sessions"` // most recently used first
}

// Stats snapshots per-session metrics, most recently used first.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	sessions := make([]*session, 0, s.lru.Len())
	for e := s.lru.Front(); e != nil; e = e.Next() {
		sessions = append(sessions, e.Value.(*session))
	}
	s.mu.Unlock()

	st := Stats{
		MaxSessions: s.cfg.MaxSessions,
		Evictions:   s.evictions.Load(),
		Restores:    s.restores.Load(),
		Draining:    s.draining.Load(),
	}
	if s.store != nil {
		st.Persisted = len(s.store.List())
	}
	for _, sess := range sessions {
		st.Sessions = append(st.Sessions, sess.statsSnapshot())
	}
	return st
}

// evictSet remembers the most recently evicted session IDs (bounded
// FIFO), so a storeless server can answer "you were evicted, re-upload"
// instead of the generic unknown-session error. The bound keeps a
// hostile churn of registrations from growing server memory.
type evictSet struct {
	cap  int
	ids  map[string]struct{}
	fifo []string
}

// newEvictSet returns an empty set remembering at most cap IDs (min 64).
func newEvictSet(cap int) *evictSet {
	if cap < 64 {
		cap = 64
	}
	return &evictSet{cap: cap, ids: make(map[string]struct{})}
}

// add remembers an evicted ID, forgetting the oldest beyond capacity.
func (e *evictSet) add(id string) {
	if _, ok := e.ids[id]; ok {
		return
	}
	for len(e.fifo) >= e.cap {
		oldest := e.fifo[0]
		e.fifo = e.fifo[1:]
		delete(e.ids, oldest)
	}
	e.ids[id] = struct{}{}
	e.fifo = append(e.fifo, id)
}

// remove forgets an ID (it was re-registered or explicitly deleted).
func (e *evictSet) remove(id string) {
	if _, ok := e.ids[id]; !ok {
		return
	}
	delete(e.ids, id)
	for i, v := range e.fifo {
		if v == id {
			e.fifo = append(e.fifo[:i], e.fifo[i+1:]...)
			break
		}
	}
}

// has reports whether an ID was recently evicted.
func (e *evictSet) has(id string) bool {
	_, ok := e.ids[id]
	return ok
}
