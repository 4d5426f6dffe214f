package api

// The uniform error envelope. Every non-2xx response of both the v1
// surface and the legacy aliases is
//
//	{"error":{"code":"...","message":"...","details":{...}}}
//
// where code is one of the stable machine-readable constants below —
// clients branch on code, never on message text, which is free to
// change.

// Error codes. These are wire contract: never renumber or rename, only
// append.
const (
	// CodeInvalidRequest covers malformed bodies, unknown enum values,
	// and other 400s without a more specific code.
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidPattern marks an unparsable or invalid query pattern.
	CodeInvalidPattern = "invalid_pattern"

	CodeGraphNotFound        = "graph_not_found"
	CodeNodeNotFound         = "node_not_found"
	CodeIndexNotFound        = "index_not_found"
	CodePartitionNotFound    = "partition_not_found"
	CodeSubscriptionNotFound = "subscription_not_found"
	// CodeNotFound is the generic 404 for unknown routes/resources.
	CodeNotFound = "not_found"

	CodeGraphExists         = "graph_exists"
	CodePersistenceDisabled = "persistence_disabled"
	CodeConflict            = "conflict"

	// CodeReadOnly: this node is a replication follower; writes must go
	// to the leader (named in details.leader). 403.
	CodeReadOnly = "read_only"

	// CodeUnauthorized: missing or wrong bearer token.
	CodeUnauthorized = "unauthorized"
	// CodeRateLimited: the per-client token bucket is empty (429).
	CodeRateLimited = "rate_limited"
	// CodeOverloaded: the engine's execution-pool queue was full and shed
	// the request (503); retry after the Retry-After header's delay.
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded: the request's deadline elapsed while queued
	// or executing (504).
	CodeDeadlineExceeded = "deadline_exceeded"

	CodeInternal = "internal"
)

// ErrorDetail is the payload of the error envelope.
type ErrorDetail struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// ErrorEnvelope is the body of every error response.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// NewError builds an envelope.
func NewError(code, message string) ErrorEnvelope {
	return ErrorEnvelope{Error: ErrorDetail{Code: code, Message: message}}
}
