package main

import (
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Parent is the ID of
// the span that caused it (0 for a root). Aggregate spans cover many
// calls of one layer inside their parent; Attrs then carry the call
// count and the busy time summed over those calls.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the benchmark ends. Times are
// nanoseconds since the log was created.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its ID.
func (l *spanLog) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)), Attrs: attrs,
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (l *spanLog) open(parent int, name string, attrs map[string]any) int {
	now := time.Now()
	return l.add(parent, name, now, now, attrs)
}

func (l *spanLog) close(id int) {
	end := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}
