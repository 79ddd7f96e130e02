package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func testLogger(buf *bytes.Buffer, level Level) *Logger {
	l := New(buf, level)
	l.now = func() time.Time { return time.Unix(1700000000, 123456789).UTC() }
	return l
}

func TestLoggerNDJSON(t *testing.T) {
	var buf bytes.Buffer
	l := testLogger(&buf, Info)
	l.Info("request", F("request_id", "r000001-abc"), F("status", 200), F("wall_ms", 1.5), F("ok", true))
	line := buf.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("event not newline-terminated: %q", line)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("event is not valid JSON: %v\n%s", err, line)
	}
	for k, want := range map[string]any{
		"level":      "info",
		"msg":        "request",
		"request_id": "r000001-abc",
		"status":     float64(200),
		"wall_ms":    1.5,
		"ok":         true,
	} {
		if ev[k] != want {
			t.Errorf("event[%q] = %v, want %v", k, ev[k], want)
		}
	}
	// Fixed key prefix order: ts, level, msg, then fields in call order.
	wantPrefix := `{"ts":"2023-11-14T22:13:20.123456789Z","level":"info","msg":"request","request_id":`
	if !strings.HasPrefix(line, wantPrefix) {
		t.Errorf("key order not fixed:\n got %s\nwant prefix %s", line, wantPrefix)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := testLogger(&buf, Warn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 events at warn level, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"level":"warn"`) || !strings.Contains(lines[1], `"level":"error"`) {
		t.Errorf("unexpected events:\n%s", buf.String())
	}
	if l.Enabled(Info) || !l.Enabled(Error) {
		t.Error("Enabled disagrees with level filter")
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Debug("d")
	l.Info("i", F("k", "v"))
	l.Warn("w")
	l.Error("e")
	l.SetDebugSampling(10)
	if l.Enabled(Error) {
		t.Error("nil logger must report disabled")
	}
}

func TestDebugSampling(t *testing.T) {
	var buf bytes.Buffer
	l := testLogger(&buf, Debug)
	l.SetDebugSampling(10)
	for i := 0; i < 100; i++ {
		l.Debug("d", F("i", i))
	}
	got := strings.Count(buf.String(), "\n")
	if got != 10 {
		t.Errorf("1-in-10 sampling of 100 events wrote %d, want 10", got)
	}
	// Info is never sampled.
	buf.Reset()
	for i := 0; i < 5; i++ {
		l.Info("i")
	}
	if strings.Count(buf.String(), "\n") != 5 {
		t.Errorf("sampling must not apply to info events")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": Debug, "INFO": Info, "warn": Warn, "warning": Warn, " error ": Error,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel must reject unknown levels")
	}
}

func TestLoggerConcurrentLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	l := testLogger(&buf, Info)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Info("event", F("g", g), F("i", i))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("want 400 intact lines, got %d", len(lines))
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("interleaved/corrupt line: %v\n%s", err, line)
		}
	}
}

func TestFlightRecorderEviction(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		seq := f.Add(Record{RequestID: fmt.Sprintf("r%03d", i)})
		if seq != uint64(i+1) {
			t.Fatalf("Add #%d returned seq %d", i, seq)
		}
	}
	recs := f.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, r := range recs {
		wantID := fmt.Sprintf("r%03d", 6+i)
		if r.RequestID != wantID || r.Seq != uint64(7+i) {
			t.Errorf("records[%d] = {%s seq=%d}, want {%s seq=%d}", i, r.RequestID, r.Seq, wantID, 7+i)
		}
	}
	if _, ok := f.Find("r005"); ok {
		t.Error("evicted record still findable")
	}
	if r, ok := f.Find("r009"); !ok || r.Seq != 10 {
		t.Errorf("Find(r009) = %+v, %v", r, ok)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(32)
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Add(Record{RequestID: fmt.Sprintf("w%d-%d", g, i), Outcome: OutcomeOK})
			}
		}(g)
	}
	wg.Wait()
	recs := f.Records()
	if len(recs) != 32 {
		t.Fatalf("ring holds %d, want 32", len(recs))
	}
	// Sequence numbers are unique, strictly increasing oldest->newest,
	// and end at the total add count.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("sequence not increasing at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
	if recs[len(recs)-1].Seq != writers*per {
		t.Errorf("last seq = %d, want %d", recs[len(recs)-1].Seq, writers*per)
	}
}

func TestFlightRecorderDefaultSize(t *testing.T) {
	if got := NewFlightRecorder(0).Cap(); got != DefaultFlightRecorderSize {
		t.Errorf("default cap = %d, want %d", got, DefaultFlightRecorderSize)
	}
	if got := NewFlightRecorder(7).Cap(); got != 7 {
		t.Errorf("cap = %d, want 7", got)
	}
}

func TestRecordJSONFieldOrder(t *testing.T) {
	b, err := json.Marshal(Record{
		Seq: 1, RequestID: "r1", Endpoint: "check", Commit: "abc",
		Outcome: OutcomeTimeout, Status: 504, Cause: "deadline",
		WallMillis: 1.5, VirtualSeconds: 2.5,
		CacheCompute: 3, CacheReuse: 1, CacheHitRatio: 0.25,
		Spans: "make.i x86=4",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"request_id":"r1","endpoint":"check","commit":"abc",` +
		`"outcome":"timeout","status":504,"cause":"deadline","wall_ms":1.5,` +
		`"virtual_seconds":2.5,"cache_compute":3,"cache_reuse":1,` +
		`"cache_hit_ratio":0.25,"spans":"make.i x86=4"}`
	if string(b) != want {
		t.Errorf("record JSON layout changed:\n got %s\nwant %s", b, want)
	}
}
