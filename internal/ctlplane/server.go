package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// Server limits and timings.
const (
	// maxBody bounds mutation request bodies; fault scripts are the largest
	// legitimate payload and stay far under this.
	maxBody = 256 << 10
	// retryAfterSeconds is the Retry-After hint sent with shed requests.
	retryAfterSeconds = 2
	// idempotencyCapacity bounds the replay cache; the oldest entry is
	// evicted past it.
	idempotencyCapacity = 1024
)

// IdempotencyHeader carries the client token that makes a mutation
// replay-safe: a retried request with the same token returns the recorded
// response instead of mutating again.
const IdempotencyHeader = "Idempotency-Key"

// ReplayHeader marks a response served from the idempotency cache.
const ReplayHeader = "X-Idempotent-Replay"

// Server maps a Controller onto HTTP/JSON:
//
//	GET  /nodes           node liveness + lifecycle accounting
//	GET  /links           link profiles + active partition
//	GET  /stats           cumulative medium/delivery counters
//	GET  /health          ok | degraded (always 200; the body carries it)
//	POST /links/impair    replace one link profile
//	POST /links/partition       install or clear the partition mask
//	POST /nodes/kill      stop a managed daemon
//	POST /nodes/restart   revive a killed daemon
//	POST /faults/script   inject a fault script into the running backend
//
// Mutations are validated per request, bodies are bounded, and a client
// Idempotency-Key token makes them replay-safe. While the backend reports
// degraded health, mutations are shed with 503 + Retry-After — reads keep
// working so operators can watch the recovery.
type Server struct {
	ctl Controller
	mux *http.ServeMux

	mu    sync.Mutex
	idem  map[string]idemEntry
	order []string // insertion order, for bounded eviction
}

type idemEntry struct {
	status int
	body   []byte
}

// NewServer builds the control-plane server over ctl.
func NewServer(ctl Controller) *Server {
	s := &Server{
		ctl:  ctl,
		mux:  http.NewServeMux(),
		idem: make(map[string]idemEntry),
	}
	s.mux.HandleFunc("GET /nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ctl.Nodes())
	})
	s.mux.HandleFunc("GET /links", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ctl.Links())
	})
	s.mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ctl.Stats())
	})
	s.mux.HandleFunc("GET /health", func(w http.ResponseWriter, r *http.Request) {
		// Always 200: a degraded verdict is a valid answer, not a server
		// failure. Enforcement happens on the mutation paths.
		writeJSON(w, http.StatusOK, s.ctl.Health())
	})
	s.mux.HandleFunc("POST /links/impair", s.mutation(s.postImpair))
	s.mux.HandleFunc("POST /links/partition", s.mutation(s.postPartition))
	s.mux.HandleFunc("POST /nodes/kill", s.mutation(s.postKill))
	s.mux.HandleFunc("POST /nodes/restart", s.mutation(s.postRestart))
	s.mux.HandleFunc("POST /faults/script", s.mutation(s.postScript))
	return s
}

// Handler returns the HTTP handler to serve.
func (s *Server) Handler() http.Handler { return s.mux }

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status, body = http.StatusInternalServerError, []byte(`{"error":"encode response"}`)
	}
	writeRaw(w, status, body)
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// mutation wraps a mutating handler with the shared policy, in order:
// idempotent replay (a completed mutation's recorded response is always
// served, even while degraded — the work already happened), admission
// control (degraded backends shed new work with 503 + Retry-After, which
// is deliberately NOT recorded so the client's retry gets a fresh
// verdict), body bounding, and response recording.
func (s *Server) mutation(h func(r *http.Request) (int, any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := ""
		if tok := r.Header.Get(IdempotencyHeader); tok != "" {
			key = r.Method + " " + r.URL.Path + " " + tok
			if e, ok := s.replay(key); ok {
				w.Header().Set(ReplayHeader, "true")
				writeRaw(w, e.status, e.body)
				return
			}
		}
		if h := s.ctl.Health(); h.Status != HealthOK {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "degraded: " + h.Reason})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		status, v := h(r)
		body, err := json.Marshal(v)
		if err != nil {
			status, body = http.StatusInternalServerError, []byte(`{"error":"encode response"}`)
		}
		if key != "" {
			s.record(key, status, body)
		}
		writeRaw(w, status, body)
	}
}

func (s *Server) replay(key string) (idemEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idem[key]
	return e, ok
}

func (s *Server) record(key string, status int, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idem[key]; ok {
		return
	}
	s.idem[key] = idemEntry{status: status, body: body}
	s.order = append(s.order, key)
	for len(s.order) > idempotencyCapacity {
		delete(s.idem, s.order[0])
		s.order = s.order[1:]
	}
}

// decodeBody strictly decodes a JSON request body into v: unknown fields,
// trailing garbage, and oversized bodies are all errors.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("request body over %d bytes", tooBig.Limit)
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("bad request body: trailing data")
	}
	return nil
}

// mapErr converts a controller error to an HTTP response.
func mapErr(err error) (int, any) {
	var reqErr RequestError
	switch {
	case errors.Is(err, ErrUnsupported):
		return http.StatusNotImplemented, apiError{Error: err.Error()}
	case errors.As(err, &reqErr):
		return http.StatusBadRequest, apiError{Error: reqErr.Msg}
	default:
		return http.StatusInternalServerError, apiError{Error: err.Error()}
	}
}

func (s *Server) postImpair(r *http.Request) (int, any) {
	var req ImpairRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, apiError{Error: err.Error()}
	}
	switch {
	case req.DF == nil:
		return http.StatusBadRequest, apiError{Error: "df is required"}
	case *req.DF < 0 || *req.DF > 1:
		return http.StatusBadRequest, apiError{Error: fmt.Sprintf("df %g out of range [0, 1]", *req.DF)}
	case req.DupProb < 0 || req.DupProb > 1:
		return http.StatusBadRequest, apiError{Error: fmt.Sprintf("dupProb %g out of range [0, 1]", req.DupProb)}
	case req.DelayMS < 0 || req.JitterMS < 0:
		return http.StatusBadRequest, apiError{Error: "delayMs and jitterMs must be non-negative"}
	}
	if err := s.ctl.Impair(req); err != nil {
		return mapErr(err)
	}
	return http.StatusOK, s.ctl.Links()
}

func (s *Server) postPartition(r *http.Request) (int, any) {
	var req PartitionRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, apiError{Error: err.Error()}
	}
	if !req.Clear && len(req.SideA) == 0 {
		return http.StatusBadRequest, apiError{Error: "sideA must be non-empty (or set clear)"}
	}
	if req.Clear && len(req.SideA) > 0 {
		return http.StatusBadRequest, apiError{Error: "clear and sideA are mutually exclusive"}
	}
	if err := s.ctl.Partition(req); err != nil {
		return mapErr(err)
	}
	return http.StatusOK, s.ctl.Links()
}

func (s *Server) postKill(r *http.Request) (int, any) {
	var req NodeRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, apiError{Error: err.Error()}
	}
	if err := s.ctl.KillNode(req.Node); err != nil {
		return mapErr(err)
	}
	return http.StatusOK, struct {
		Killed int `json:"killed"`
	}{Killed: req.Node}
}

func (s *Server) postRestart(r *http.Request) (int, any) {
	var req NodeRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, apiError{Error: err.Error()}
	}
	if err := s.ctl.RestartNode(req.Node); err != nil {
		return mapErr(err)
	}
	return http.StatusOK, struct {
		Restarted int `json:"restarted"`
	}{Restarted: req.Node}
}

func (s *Server) postScript(r *http.Request) (int, any) {
	var req ScriptRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, apiError{Error: err.Error()}
	}
	switch {
	case len(req.Script) == 0:
		return http.StatusBadRequest, apiError{Error: "script is required"}
	case req.TimeScale < 0:
		return http.StatusBadRequest, apiError{Error: fmt.Sprintf("timeScale %g must be positive", req.TimeScale)}
	}
	res, err := s.ctl.InjectScript(req)
	if err != nil {
		return mapErr(err)
	}
	return http.StatusOK, res
}
