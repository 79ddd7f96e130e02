// Package obs is the service-side observability kit for jmaked: a
// leveled NDJSON event logger and a fixed-size flight recorder of recent
// request records.
//
// Everything here lives *beside* check reports, never inside them: logs
// and flight records may carry wall-clock timestamps and durations, but
// the report JSON a request returns is byte-identical whether or not
// logging or flight recording is enabled. That split is the same
// discipline internal/trace established for virtual-time spans — the
// deterministic artifact and the operational telemetry never share a
// byte stream.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity threshold.
type Level int

const (
	// Debug events are high-volume per-request details, subject to
	// sampling (SetDebugSampling).
	Debug Level = iota
	// Info events are one line per request plus lifecycle events.
	Info
	// Warn events are recoverable anomalies (shed, timeout, canary miss).
	Warn
	// Error events are panics and internal failures.
	Error
)

// String renders the level as its lowercase NDJSON token.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel parses a -log-level flag value.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return Debug, nil
	case "info":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// Field is one key/value pair on an event. Fields render in the order
// given, after the fixed ts/level/msg prefix.
type Field struct {
	Key   string
	Value any
}

// F is shorthand for constructing a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Logger writes one JSON object per event, newline-delimited. A nil
// *Logger is valid and discards everything, so call sites never need a
// guard. Writes under a mutex so concurrent request goroutines never
// interleave bytes within a line.
type Logger struct {
	mu     sync.Mutex
	w      io.Writer
	level  Level
	sample atomic.Int64 // keep 1 of every N debug events; <=1 keeps all
	debugN atomic.Uint64
	now    func() time.Time // test hook
}

// New returns a logger writing NDJSON events at or above level to w.
func New(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level, now: time.Now}
}

// SetDebugSampling keeps 1 of every n Debug events (n <= 1 keeps all).
// Info and above are never sampled.
func (l *Logger) SetDebugSampling(n int) {
	if l == nil {
		return
	}
	l.sample.Store(int64(n))
}

// Enabled reports whether events at lv would be written, so callers can
// skip building expensive debug fields.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.level
}

// Debugf-style sugar is deliberately absent: events are (msg, fields),
// not format strings, so downstream tooling can filter on keys.

// Debug logs a sampled high-volume event.
func (l *Logger) Debug(msg string, fields ...Field) {
	if !l.Enabled(Debug) {
		return
	}
	if n := l.sample.Load(); n > 1 {
		if l.debugN.Add(1)%uint64(n) != 1 {
			return
		}
	}
	l.emit(Debug, msg, fields)
}

// Info logs a per-request or lifecycle event.
func (l *Logger) Info(msg string, fields ...Field) {
	if l.Enabled(Info) {
		l.emit(Info, msg, fields)
	}
}

// Warn logs a recoverable anomaly.
func (l *Logger) Warn(msg string, fields ...Field) {
	if l.Enabled(Warn) {
		l.emit(Warn, msg, fields)
	}
}

// Error logs a failure.
func (l *Logger) Error(msg string, fields ...Field) {
	if l.Enabled(Error) {
		l.emit(Error, msg, fields)
	}
}

// emit renders the event by hand so the key order is fixed
// (ts, level, msg, then fields in call order); values go through
// encoding/json so arbitrary types are safe.
func (l *Logger) emit(lv Level, msg string, fields []Field) {
	var b strings.Builder
	b.Grow(128)
	b.WriteString(`{"ts":"`)
	b.WriteString(l.now().UTC().Format(time.RFC3339Nano))
	b.WriteString(`","level":"`)
	b.WriteString(lv.String())
	b.WriteString(`","msg":`)
	writeJSONValue(&b, msg)
	for _, f := range fields {
		b.WriteByte(',')
		writeJSONValue(&b, f.Key)
		b.WriteByte(':')
		writeJSONValue(&b, f.Value)
	}
	b.WriteString("}\n")
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

func writeJSONValue(b *strings.Builder, v any) {
	enc, err := json.Marshal(v)
	if err != nil {
		enc, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	b.Write(enc)
}
