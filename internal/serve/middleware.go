package serve

import (
	"bytes"
	"context"
	"log"
	"net/http"
	"runtime/debug"
	"time"
)

// Limits bounds a server's request handling. The zero value disables
// both bounds (no deadline, unlimited concurrency).
type Limits struct {
	// Timeout is the per-request deadline, installed on the request
	// context. A request that exceeds it receives 504 Gateway Timeout
	// and increments tgopt_timeouts_total. 0 disables the deadline.
	Timeout time.Duration
	// MaxInFlight caps concurrently-executing requests. A request
	// arriving at saturation receives 429 Too Many Requests (with a
	// Retry-After hint) and increments tgopt_rejected_total. 0 means
	// unlimited.
	MaxInFlight int
}

// SetLimits configures the server's request bounds. Call it before
// Handler; it is not safe to change limits while requests are in flight.
func (s *Server) SetLimits(l Limits) {
	s.limits = l
	if l.MaxInFlight > 0 {
		s.sem = make(chan struct{}, l.MaxInFlight)
	} else {
		s.sem = nil
	}
}

// exemptFromLimits reports whether a request bypasses the in-flight
// semaphore and deadline: observability endpoints must stay scrapeable
// while the serving path is saturated, which is exactly when their data
// matters most.
func exemptFromLimits(r *http.Request) bool {
	return r.Method == http.MethodGet &&
		(r.URL.Path == "/metrics" || r.URL.Path == "/v1/stats" ||
			r.URL.Path == "/healthz" || r.URL.Path == "/readyz")
}

// wrap is the serving middleware: max-in-flight admission control
// (429), per-request deadline (504), panic-to-500 recovery, and the
// in-flight gauge. It buffers handler output so a deadline firing
// mid-handler can never interleave a 504 with a half-written body.
func (s *Server) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release := func() {}
		if s.sem != nil && !exemptFromLimits(r) {
			select {
			case s.sem <- struct{}{}:
				release = func() { <-s.sem }
			default:
				s.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests,
					"server saturated: %d requests in flight", s.limits.MaxInFlight)
				return
			}
		}
		s.inflight.Add(1)
		finish := func() {
			s.inflight.Add(-1)
			release()
		}

		if s.limits.Timeout <= 0 || exemptFromLimits(r) {
			defer finish()
			// Buffer even without a deadline so a panic mid-write still
			// yields a clean 500 instead of a half-committed 200.
			bw := &bufferedResponse{header: make(http.Header)}
			func() {
				defer s.recoverPanic(bw, r)
				next.ServeHTTP(bw, r)
			}()
			bw.flushTo(w)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.limits.Timeout)
		defer cancel()
		r = r.WithContext(ctx)

		// The handler runs on its own goroutine against a buffered
		// response. On completion the buffer is flushed; on deadline the
		// client gets a clean 504 and the buffer is discarded when the
		// handler eventually returns (it keeps its in-flight slot until
		// then, so MaxInFlight still counts truly-running work).
		bw := &bufferedResponse{header: make(http.Header)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer finish()
			defer s.recoverPanic(bw, r)
			next.ServeHTTP(bw, r)
		}()
		select {
		case <-done:
			bw.flushTo(w)
		case <-ctx.Done():
			s.timeouts.Add(1)
			httpError(w, http.StatusGatewayTimeout,
				"request exceeded the %s deadline", s.limits.Timeout)
		}
	})
}

// recoverPanic converts a handler panic into a 500 response and counts
// it, keeping one bad request from killing the process.
func (s *Server) recoverPanic(w http.ResponseWriter, r *http.Request) {
	rec := recover()
	if rec == nil {
		return
	}
	s.panics.Add(1)
	log.Printf("serve: panic handling %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
	if bw, ok := w.(*bufferedResponse); ok {
		bw.reset()
	}
	httpError(w, http.StatusInternalServerError, "internal error")
}

// bufferedResponse is an http.ResponseWriter that accumulates the
// response in memory until flushTo.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

// reset discards everything written so far (panic recovery rewrites the
// response from scratch).
func (b *bufferedResponse) reset() {
	b.header = make(http.Header)
	b.code = 0
	b.body.Reset()
}

// flushTo replays the buffered response onto the real writer.
func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, vs := range b.header {
		dst[k] = vs
	}
	code := b.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	w.Write(b.body.Bytes())
}
