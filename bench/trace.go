package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function; nothing inside the program is instrumented.
type span struct {
	name       string
	start, end time.Duration // since the log's origin
	parent     int           // index of the enclosing span, -1 at the top
	tid        int           // 0 for the coordinating goroutine, w+1 for serve worker w
}

// spanLog keeps every span of a traced run in memory until it is written
// out at exit. It is safe for concurrent use: serve workers share it.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span that started at t0 and returns its index,
// which child spans name as their parent.
func (l *spanLog) add(name string, t0, t1 time.Time, parent, tid int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name, t0.Sub(l.origin), t1.Sub(l.origin), parent, tid})
	return len(l.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (l *spanLog) open(name string, parent, tid int) int {
	now := time.Now()
	return l.add(name, now, now, parent, tid)
}

func (l *spanLog) close(id int) {
	now := time.Now()
	l.mu.Lock()
	l.spans[id].end = now.Sub(l.origin)
	l.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto. Each event carries its own index and its parent's in args.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{s.name, "X", float64(s.start) / 1e3, float64(s.end-s.start) / 1e3, 1, s.tid,
			map[string]int{"id": i, "parent": s.parent}}
	}
	l.mu.Unlock()
	data, err := json.Marshal(struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []event `json:"traceEvents"`
	}{"ns", events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
