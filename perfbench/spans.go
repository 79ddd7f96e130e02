package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a program module, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Replayed spans have the operation's span as parent but run after it.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Replay marks calls re-run outside the operation (see replay.go).
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanLog keeps spans in memory for the whole run; they are written out
// once, when the run ends, so recording costs one append per call. A nil
// log records nothing (the untraced runs).
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span and returns its ID (0 on a nil log); close ends it.
// Children opened in between name it as their parent.
func (l *spanLog) open(name string, op, parent int, replay bool) int {
	if l == nil {
		return 0
	}
	return l.add(span{Parent: parent, Op: op, Name: name, Start: time.Since(l.t0), Replay: replay})
}

func (l *spanLog) close(id int) {
	if l == nil || id == 0 {
		return
	}
	end := time.Since(l.t0)
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

// timed runs fn inside a span and returns the span's ID.
func (l *spanLog) timed(name string, op, parent int, fn func()) int {
	id := l.open(name, op, parent, false)
	fn()
	l.close(id)
	return id
}

// replay is timed for a call the benchmark re-runs after the operation.
func (l *spanLog) replay(name string, op, parent int, fn func()) int {
	id := l.open(name, op, parent, true)
	fn()
	l.close(id)
	return id
}

// replayAt records a replayed call timed by the caller.
func (l *spanLog) replayAt(name string, op, parent int, start, end time.Time) {
	if l == nil {
		return
	}
	l.add(span{Parent: parent, Op: op, Name: name, Start: start.Sub(l.t0), End: end.Sub(l.t0), Replay: true})
}

// duration of a closed span (0 on a nil log).
func (l *spanLog) duration(id int) time.Duration {
	if l == nil || id == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id-1].dur()
}

func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Count int
	Total time.Duration
}

func (s layerStat) meanMS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Count) / float64(time.Millisecond)
}

// stats aggregates spans by name.
func (l *spanLog) stats() map[string]layerStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]layerStat)
	for _, s := range l.spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.dur()
		out[s.Name] = st
	}
	return out
}

// selfMeanMS is the mean self time — duration less the summed durations
// of the span's children — of the spans named name whose operation is in
// ops (every operation when ops is nil): a traced run may replay only a
// prefix of its operations, and an unreplayed one has no children to
// subtract.
func (l *spanLog) selfMeanMS(name string, ops map[int]bool) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int]time.Duration)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	var self time.Duration
	n := 0
	for _, s := range l.spans {
		if s.Name == name && (ops == nil || ops[s.Op]) {
			self += s.dur() - children[s.ID]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(self) / float64(n) / float64(time.Millisecond)
}

// writeJSONL writes every span, one JSON object per line, in ID order.
func (l *spanLog) writeJSONL(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
