package server

// Error rendering: every non-2xx response — v1 and legacy alike — is
// the uniform envelope {"error":{"code","message","details"}} from
// internal/api. Handlers pass Go errors; the mapping from error chain
// to (HTTP status, stable code) lives here so no handler invents its
// own.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"expfinder/internal/api"
	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/subscribe"
	"expfinder/internal/wal"
)

// writeJSON encodes body before it sends the status, so a body
// encoding/json refuses (a NaN, say) answers 500 with the error envelope
// instead of a status with an empty body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Errorf("encode response: %w", err))
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// writeBody sends one encoded JSON body in one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write has no client left to tell
}

// writeErr renders err as the error envelope, deriving the stable code
// from the error chain (falling back to a status-default code). A
// read-only rejection carries the leader's address in details so a
// client can redirect its write without a second lookup; an overload
// carries the queue it found full.
func writeErr(w http.ResponseWriter, status int, err error) {
	var details map[string]any
	var ro *engine.ReadOnlyError
	var ov *engine.ErrOverloaded
	switch {
	case errors.As(err, &ro) && ro.Leader != "":
		details = map[string]any{"leader": ro.Leader}
	case errors.As(err, &ov):
		details = overloadDetails(w, ov)
	}
	writeEnvelope(w, status, codeFor(status, err), err.Error(), details)
}

// overloadDetails sets Retry-After on a shed response and returns the
// envelope details: the queue depth tells a shed client how far behind
// it is — depth/Parallelism slot releases must happen first — so a deeper
// queue warrants a longer back-off than the 1-second floor.
func overloadDetails(w http.ResponseWriter, ov *engine.ErrOverloaded) map[string]any {
	w.Header().Set("Retry-After", "1")
	return map[string]any{"retry_after_seconds": 1, "queue_depth": ov.Queued, "max_queue": ov.Bound}
}

// writeCode renders err under an explicit code, for call sites whose
// context knows more than the error chain (e.g. pattern parsing).
func writeCode(w http.ResponseWriter, status int, code string, err error) {
	writeEnvelope(w, status, code, err.Error(), nil)
}

func writeEnvelope(w http.ResponseWriter, status int, code, message string, details map[string]any) {
	env := api.NewError(code, message)
	env.Error.Details = details
	writeJSON(w, status, env)
}

// statusFor maps engine errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, engine.ErrNoGraph), errors.Is(err, engine.ErrNoIndex),
		errors.Is(err, engine.ErrNoPartition), errors.Is(err, graph.ErrNoNode),
		errors.Is(err, subscribe.ErrNoSubscription):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrGraphExists), errors.Is(err, wal.ErrExists),
		errors.Is(err, engine.ErrNoPersistence):
		return http.StatusConflict
	case errors.Is(err, engine.ErrReadOnly):
		return http.StatusForbidden
	case errors.As(err, new(*engine.ErrOverloaded)):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// codeFor derives the stable machine-readable code: the error chain
// decides when it can, the status class otherwise.
func codeFor(status int, err error) string {
	switch {
	case errors.Is(err, engine.ErrNoGraph):
		return api.CodeGraphNotFound
	case errors.Is(err, graph.ErrNoNode):
		return api.CodeNodeNotFound
	case errors.Is(err, engine.ErrNoIndex):
		return api.CodeIndexNotFound
	case errors.Is(err, engine.ErrNoPartition):
		return api.CodePartitionNotFound
	case errors.Is(err, subscribe.ErrNoSubscription):
		return api.CodeSubscriptionNotFound
	case errors.Is(err, engine.ErrGraphExists), errors.Is(err, wal.ErrExists):
		return api.CodeGraphExists
	case errors.Is(err, engine.ErrNoPersistence):
		return api.CodePersistenceDisabled
	case errors.Is(err, engine.ErrReadOnly):
		return api.CodeReadOnly
	case errors.Is(err, context.DeadlineExceeded):
		return api.CodeDeadlineExceeded
	}
	switch status {
	case http.StatusUnauthorized:
		return api.CodeUnauthorized
	case http.StatusNotFound:
		return api.CodeNotFound
	case http.StatusConflict:
		return api.CodeConflict
	case http.StatusTooManyRequests:
		return api.CodeRateLimited
	case http.StatusServiceUnavailable:
		return api.CodeOverloaded
	case http.StatusGatewayTimeout:
		return api.CodeDeadlineExceeded
	case http.StatusInternalServerError:
		return api.CodeInternal
	default:
		return api.CodeInvalidRequest
	}
}
