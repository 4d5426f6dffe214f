package server

// The pattern memo: every route that takes a pattern (/query,
// /query/batch, /register, /subscribe) gets it from parsePattern, which
// parses each distinct text once and hands every later request for that
// text the same frozen *pattern.Pattern, its Hash already stored. A
// frozen pattern panics on mutation, so sharing one across requests,
// the result cache, standing queries and subscriptions is safe by
// construction.

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"expfinder/internal/pattern"
	"expfinder/internal/trace"
)

const (
	// patternMemoEntries bounds the memo: a new text that finds it full
	// evicts an arbitrary entry first.
	patternMemoEntries = 1024
	// patternMemoMaxText is the longest text the memo keeps; a longer
	// one is parsed on every request and kept by none.
	patternMemoMaxText = 4 << 10
)

// patternKey is a pattern as it was sent: DSL text, or the raw bytes of
// the JSON form. The two forms never share an entry.
type patternKey struct {
	text string
	json bool
}

func (k patternKey) parse() (*pattern.Pattern, error) {
	if !k.json {
		return pattern.Parse(k.text)
	}
	q := pattern.New()
	if err := q.UnmarshalJSON([]byte(k.text)); err != nil {
		return nil, err
	}
	return q, nil
}

// memoEntry is one text's parse: q or err is set before done closes.
type memoEntry struct {
	done chan struct{}
	q    *pattern.Pattern
	err  error
}

// patternMemo maps pattern texts to their frozen parse. Requests that
// miss on the same text at once share one parse; a parse error reaches
// the requests that waited for it and is then dropped, so the next
// request for that text parses it again.
type patternMemo struct {
	mu      sync.Mutex
	entries map[patternKey]*memoEntry

	hits, misses atomic.Int64
}

func newPatternMemo() *patternMemo {
	return &patternMemo{entries: make(map[patternKey]*memoEntry)}
}

// parsePattern is the one parse entry of every route that takes a
// pattern: the DSL text when set, else the JSON form. It records on the
// request's root span whether the memo held the text (pattern_memo: hit
// or miss; a batch records one per entry, and its snapshot keeps the
// last), and a miss opens a pattern.parse span.
func (s *Server) parsePattern(ctx context.Context, dsl string, raw json.RawMessage) (*pattern.Pattern, error) {
	switch {
	case dsl != "":
		return s.patterns.parse(ctx, patternKey{text: dsl})
	case raw != nil:
		return s.patterns.parse(ctx, patternKey{text: string(raw), json: true})
	default:
		return nil, errors.New("request needs pattern or dsl")
	}
}

func (m *patternMemo) parse(ctx context.Context, key patternKey) (*pattern.Pattern, error) {
	e, fill := m.entry(key)
	if !fill {
		<-e.done
		m.hits.Add(1)
		trace.SpanFrom(ctx).SetStr("pattern_memo", "hit")
		return e.q, e.err
	}
	defer close(e.done) // even if the parser panics: no waiter may hang
	m.misses.Add(1)
	trace.SpanFrom(ctx).SetStr("pattern_memo", "miss")
	_, sp := trace.StartSpan(ctx, "pattern.parse")
	e.q, e.err = key.parse()
	sp.End()
	if e.err == nil {
		e.q.Freeze()
	} else {
		m.mu.Lock()
		if m.entries[key] == e {
			delete(m.entries, key)
		}
		m.mu.Unlock()
	}
	return e.q, e.err
}

// entry returns key's entry, and whether the caller must fill it: true
// for a new entry, which is kept unless its text is longer than
// patternMemoMaxText.
func (m *patternMemo) entry(key patternKey) (*memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[key]; e != nil {
		return e, false
	}
	e := &memoEntry{done: make(chan struct{})}
	if len(key.text) > patternMemoMaxText {
		return e, true
	}
	if len(m.entries) >= patternMemoEntries {
		for k := range m.entries { // map order: an arbitrary victim
			delete(m.entries, k)
			break
		}
	}
	m.entries[key] = e
	return e, true
}

func (m *patternMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
