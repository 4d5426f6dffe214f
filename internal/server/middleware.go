package server

// The middleware chain of the serving tier. Per request (outermost
// first): request-id assignment -> structured logging -> per-route
// metrics -> token auth -> per-client rate limiting -> deadline
// propagation and entry into the engine's execution pool -> handler. /healthz and /metrics
// are mounted outside the auth/rate/admission chain so probes and
// scrapes keep answering under overload.

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/engine"
)

type ctxKey int

// ctxKeyRoute carries the *routeInfo filled by per-route middleware.
const ctxKeyRoute ctxKey = 0

// routeInfo is allocated by the outer logging middleware and filled in
// by the per-route metrics middleware, so the access log can name the
// route that actually matched.
type routeInfo struct {
	name string
}

// statusWriter records status and size for logging/metrics. Flush is
// forwarded explicitly: embedding http.ResponseWriter does not make the
// wrapper an http.Flusher, and the SSE stream asserts for one.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

var (
	reqSeq   atomic.Uint64
	reqEpoch = time.Now().UnixNano()
)

// nextRequestID returns a process-unique request id: boot-time entropy
// plus a sequence number — cheap, collision-free within a process, and
// greppable across restarts.
func nextRequestID() string {
	return fmt.Sprintf("%08x-%06d", uint32(reqEpoch), reqSeq.Add(1))
}

// withObservability wraps the whole mux: assigns the request id (echoed
// as X-Request-ID) and writes one access-log record per request.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		ri := &routeInfo{}
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRoute, ri))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		// Probe and scrape endpoints are exempt from the access log: a
		// load balancer polling /healthz every few seconds would drown
		// real request logs in identical lines.
		if r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			route := ri.name
			if route == "" {
				route = "unmatched"
			}
			// LogAttrs, not Info's key/value form: typed attributes box
			// nothing, so a discarding logger costs no allocation here.
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", id), slog.String("method", r.Method),
				slog.String("path", r.URL.Path), slog.String("route", route),
				slog.Int("status", status), slog.Int64("bytes", sw.bytes),
				slog.Duration("latency", time.Since(start).Round(time.Microsecond)))
		}
	})
}

// withMetrics names the route for the access log and records the
// request count and latency histogram under that name. A 503 is always a
// shed (errors.go), so the shed counter is kept here too.
func (s *Server) withMetrics(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ri, ok := r.Context().Value(ctxKeyRoute).(*routeInfo); ok {
			ri.name = route
		}
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w}
			w = sw
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if status == http.StatusServiceUnavailable {
			s.mShed.Inc()
		}
		s.mReqs.Inc(route, r.Method, strconv.Itoa(status))
		s.mLatency.Observe(time.Since(start).Seconds(), route)
	})
}

// withAuth enforces the bearer token when one is configured.
func (s *Server) withAuth(next http.Handler) http.Handler {
	if s.cfg.AuthToken == "" {
		return next
	}
	want := "Bearer " + s.cfg.AuthToken
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != want {
			w.Header().Set("WWW-Authenticate", `Bearer realm="expfinder"`)
			writeEnvelope(w, http.StatusUnauthorized, api.CodeUnauthorized,
				"missing or invalid bearer token", nil)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// rateLimiter is a per-client token-bucket limiter: rate tokens/second
// refill up to burst, one token per request. Clients are keyed by
// X-Client-ID when present (trusted deployments put an API key or user
// id there), else by remote host.
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	b := float64(burst)
	if b <= 0 {
		// Default burst: one second of rate, at least 1.
		b = math.Max(1, rate)
	}
	return &rateLimiter{rate: rate, burst: b, buckets: map[string]*bucket{}}
}

// allow consumes a token for key. It returns the whole tokens left
// after the decision (the X-RateLimit-Remaining header) and, when
// denied, the seconds until a token will be available.
func (rl *rateLimiter) allow(key string, now time.Time) (ok bool, remaining int, wait float64) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	bk, found := rl.buckets[key]
	if !found {
		bk = &bucket{tokens: rl.burst, last: now}
		rl.buckets[key] = bk
	}
	bk.tokens = math.Min(rl.burst, bk.tokens+rl.rate*now.Sub(bk.last).Seconds())
	bk.last = now
	if bk.tokens >= 1 {
		bk.tokens--
		return true, int(bk.tokens), 0
	}
	rl.maybeSweep(now)
	return false, 0, (1 - bk.tokens) / rl.rate
}

// maybeSweep drops buckets idle long enough to have refilled to full —
// they carry no state a fresh bucket wouldn't. Called with mu held, at
// most once a minute.
func (rl *rateLimiter) maybeSweep(now time.Time) {
	if len(rl.buckets) < 1024 || now.Sub(rl.sweepAt) < time.Minute {
		return
	}
	rl.sweepAt = now
	idle := time.Duration(rl.burst/rl.rate*float64(time.Second)) + time.Minute
	for k, bk := range rl.buckets {
		if now.Sub(bk.last) > idle {
			delete(rl.buckets, k)
		}
	}
}

func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// withRateLimit rejects over-budget clients with 429 + Retry-After.
// Every rate-limited route answers with X-RateLimit-Remaining so a
// well-behaved client can pace itself before hitting 429.
func (s *Server) withRateLimit(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ok, remaining, wait := s.limiter.allow(clientKey(r), time.Now())
		w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(remaining))
		if !ok {
			retry := int(math.Ceil(wait))
			if retry < 1 {
				retry = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.mRateLimited.Inc()
			writeEnvelope(w, http.StatusTooManyRequests, api.CodeRateLimited,
				"client request rate exceeds the configured limit",
				map[string]any{"retry_after_seconds": retry})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withAdmission propagates the request timeout as a context deadline, so
// the engine stops computing for clients that already gave up, and puts
// the request into the engine's execution pool the way its route says: a
// poolSlot route holds one slot for the whole request, a poolEngine route
// none — each query it runs takes its own inside Execute. A full pool
// queue sheds with 503 + Retry-After (errors.go): waiting clients already
// cover the next several slot releases, so more traffic only grows the
// tail.
func (s *Server) withAdmission(mode pooling, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		// Targeted shedding: once the queue is half full, the client
		// burning the majority of the last minute's wall time is shed
		// first — one heavy tenant should not queue everyone else out.
		if st := s.eng.Pool(); s.cfg.ShedHeaviest && st.Queued*2 >= st.Bound {
			if heavy, share := s.ledger.Heaviest(time.Minute); heavy != "" && share >= 0.5 && clientKey(r) == heavy {
				s.mShedHeavy.Inc()
				ov := &engine.ErrOverloaded{Queued: st.Queued, Bound: st.Bound}
				details := overloadDetails(w, ov)
				details["reason"], details["wall_share"] = "heaviest_client", share
				writeEnvelope(w, http.StatusServiceUnavailable, api.CodeOverloaded, ov.Error(), details)
				return
			}
		}
		if mode == poolSlot {
			release, err := s.eng.Admit(ctx)
			if err != nil {
				writeErr(w, statusFor(err), err)
				return
			}
			defer release()
		}
		next.ServeHTTP(w, r)
	})
}
