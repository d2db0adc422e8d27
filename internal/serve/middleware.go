package serve

import (
	"bytes"
	"context"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
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
		exempt := exemptFromLimits(r)
		admitted := false
		if s.sem != nil && !exempt {
			select {
			case s.sem <- struct{}{}:
				admitted = true
			default:
				s.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests,
					"server saturated: %d requests in flight", s.cfg.Limits.MaxInFlight)
				return
			}
		}
		s.inflight.Add(1)
		bw := getBufferedResponse()

		if s.cfg.Limits.Timeout <= 0 || exempt {
			// Buffer even without a deadline so a panic mid-write still
			// yields a clean 500 instead of a half-committed 200.
			s.serveBuffered(next, bw, r, admitted)
			bw.flushTo(w)
			bw.release()
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Limits.Timeout)
		defer cancel()
		r = r.WithContext(ctx)

		// The handler runs on its own goroutine against a buffered
		// response. On completion the buffer is flushed; on deadline the
		// client gets a clean 504 and the buffer is left to the handler,
		// which may still be writing it (it keeps its in-flight slot until
		// it returns, so MaxInFlight still counts truly-running work).
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.serveBuffered(next, bw, r, admitted)
		}()
		select {
		case <-done:
			bw.flushTo(w)
			bw.release()
		case <-ctx.Done():
			s.timeouts.Add(1)
			httpError(w, http.StatusGatewayTimeout,
				"request exceeded the %s deadline", s.cfg.Limits.Timeout)
		}
	})
}

// serveBuffered runs next into bw, recovering a panic to a 500, and then
// gives back the request's in-flight slot.
func (s *Server) serveBuffered(next http.Handler, bw *bufferedResponse, r *http.Request, admitted bool) {
	defer func() {
		s.inflight.Add(-1)
		if admitted {
			<-s.sem
		}
	}()
	defer s.recoverPanic(bw, r)
	next.ServeHTTP(bw, r)
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
// response in memory until flushTo. The middleware takes one from
// bufferedPool per request and gives it back after the flush, unless its
// body grew past maxPooledBody.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

var bufferedPool = sync.Pool{New: func() any { return &bufferedResponse{header: make(http.Header)} }}

func getBufferedResponse() *bufferedResponse { return bufferedPool.Get().(*bufferedResponse) }

// release empties b and returns it to the pool. The header values
// flushTo handed to net/http stay as they are: clearing the map drops
// b's references to them, it does not write to them.
func (b *bufferedResponse) release() {
	if b.body.Cap() > maxPooledBody {
		return
	}
	b.reset()
	bufferedPool.Put(b)
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
	clear(b.header)
	b.code = 0
	b.body.Reset()
}

// flushTo replays the buffered response onto the real writer. The body
// is complete, so it goes out with its Content-Length instead of
// chunked.
func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, vs := range b.header {
		dst[k] = vs
	}
	dst["Content-Length"] = []string{strconv.Itoa(b.body.Len())}
	code := b.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	w.Write(b.body.Bytes())
}
