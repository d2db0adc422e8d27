package serve

import (
	"net/http"
)

// Liveness and readiness endpoints, the contract a load balancer or
// orchestrator drives restarts and traffic by:
//
//   - GET /healthz (liveness): 200 as long as the process can serve
//     HTTP at all. It deliberately checks nothing else — a deployment
//     with every shard down is degraded, not dead, and restarting the
//     process would only lose the warm caches.
//   - GET /readyz (readiness): 200 only when the server should receive
//     traffic: warm-start finished (SetReady), not draining
//     (BeginDrain), and — in sharded mode — at least one shard is up.
//
// Both bypass the in-flight limit and deadline middleware: health
// checks must answer while the serving path is saturated, which is
// exactly when the orchestrator most needs the signal.

// SetReady marks warm-start complete: /readyz starts answering 200.
// Call it after WarmStart (and any other boot work) but before
// accepting traffic matters.
func (s *Server) SetReady() { s.ready.Store(true) }

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// requests here, without affecting requests already in flight. Call it
// at the start of graceful shutdown, before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	pool := s.shardHealth()
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "warm-start not complete")
	case pool != nil && pool.Healthy == 0:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "no shard of %d is up", len(pool.Shards))
	default:
		writeJSON(w, map[string]string{"status": "ready"})
	}
}
