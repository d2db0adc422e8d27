package serve

import (
	"net/http"
)

// Liveness and readiness endpoints, the contract a load balancer or
// orchestrator drives restarts and traffic by:
//
//   - GET /healthz (liveness): 200 as long as the process can serve
//     HTTP at all. It deliberately checks nothing else — a server with
//     a core down is replacing it, not dead, and restarting the process
//     would only lose the warm caches.
//   - GET /readyz (readiness): 200 only when the server should receive
//     traffic: Start has warm-started, it is not draining (BeginDrain),
//     and a core of the serving version is up. A down single core reads
//     503 until its replacement is published; a pool, until every shard
//     is down.
//
// Both bypass the in-flight limit and deadline middleware: health
// checks must answer while the serving path is saturated, which is
// exactly when the orchestrator most needs the signal.

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
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "warm-start not complete")
	case s.cur.Load().backend.Up() == 0:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "no core of %d is up", s.cfg.Shards)
	default:
		writeJSON(w, map[string]string{"status": "ready"})
	}
}
