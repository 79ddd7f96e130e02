package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jmake"
	"jmake/internal/cliopts"
	"jmake/internal/metrics"
	"jmake/internal/obs"
)

// testWorkspace is the tiny substrate every daemon test serves.
var testWorkspace = cliopts.Workspace{
	TreeSeed: 11, HistorySeed: 12, TreeScale: 0.12, CommitScale: 0.008,
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workspace:   testWorkspace,
		MaxInFlight: 4,
		MaxQueue:    64,
		Debug:       true,
		// Tests run quiet; individual tests swap in a buffer logger when
		// they assert on the event stream.
		Logger: obs.New(io.Discard, obs.Error),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("daemon.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCheck(t *testing.T, ts *httptest.Server, req checkRequest) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST /check: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func windowTail(s *Server, n int) []string {
	ids := s.Commits()
	if len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	return ids
}

func counterValue(reg *metrics.Registry, name string) uint64 {
	return reg.Counter(name).Value()
}

// assertReportSafety applies the chaos-sweep invariant to a served body:
// certified ⇒ all mutations found, no escapes.
func assertReportSafety(t *testing.T, commit string, body []byte) {
	t.Helper()
	var r jmake.Report
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("%s: undecodable report: %v", commit, err)
	}
	for _, f := range r.Files {
		if f.Status != jmake.StatusCertified {
			continue
		}
		if f.FoundMutations != f.Mutations {
			t.Errorf("%s: %s certified with %d/%d mutations found", commit, f.Path, f.FoundMutations, f.Mutations)
		}
		if len(f.EscapedLines) != 0 {
			t.Errorf("%s: %s certified with escaped lines %v", commit, f.Path, f.EscapedLines)
		}
	}
}

// TestConcurrentByteIdentical: the same commits answered concurrently
// (shared warm session, any interleaving) must be byte-identical to the
// sequential answers AND to a fresh offline session's reports — the
// service may change latency, never bytes. Run under -race this also
// exercises the session sharing.
func TestConcurrentByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, nil)
	ids := windowTail(s, 6)

	sequential := make(map[string][]byte, len(ids))
	for _, id := range ids {
		status, body := postCheck(t, ts, checkRequest{Commit: id})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, status, body)
		}
		sequential[id] = body
	}

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(ids))
	for round := 0; round < rounds; round++ {
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				status, body := postCheck(t, ts, checkRequest{Commit: id})
				if status != http.StatusOK {
					errs <- fmt.Sprintf("%s: status %d", id, status)
					return
				}
				if !bytes.Equal(body, sequential[id]) {
					errs <- fmt.Sprintf("%s: concurrent body differs from sequential", id)
				}
			}(id)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Cross-check one daemon answer against an offline fresh session: the
	// daemon serves the same bytes the library computes cold.
	built, err := testWorkspace.Build()
	if err != nil {
		t.Fatal(err)
	}
	session, err := built.SessionAt(built.WindowIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	report, err := jmake.CheckCommitWith(session, built.Hist.Repo, ids[0], jmake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(report), sequential[ids[0]]) {
		t.Error("daemon report differs from an offline fresh-session report")
	}
}

// TestAdmissionShed: with one slot, no queue, and a held check, the
// second request must be shed with 429 + Retry-After — bounded admission,
// not unbounded queueing.
func TestAdmissionShed(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = -1 // no wait queue
	})
	id := s.Commits()[len(s.Commits())-1]

	release := make(chan struct{})
	go func() {
		defer close(release)
		status, _ := postCheck(t, ts, checkRequest{Commit: id, DebugHoldMS: 2000})
		if status != http.StatusOK {
			t.Errorf("held request: status %d", status)
		}
	}()
	// Wait until the held request owns the slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.inflight.Value() == 0 {
		t.Fatal("held request never became in-flight")
	}

	data, _ := json.Marshal(checkRequest{Commit: id})
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if counterValue(s.Metrics(), "requests_shed") == 0 {
		t.Error("shed not counted")
	}
	<-release
}

// TestGateRecordsEveryExit: each gated endpoint's refusals — draining,
// shed, a deadline that expires in the queue, an over-limit body — carry
// a request ID, and each adds exactly one outcome count and one flight
// record under that ID. /audit never runs the audit while refused.
func TestGateRecordsEveryExit(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
		c.DefaultDeadline = 50 * time.Millisecond
	})
	h := s.Handler()
	id := windowTail(s, 1)[0]
	bodies := map[string]string{
		"check":  `{"commit":"` + id + `"}`,
		"batch":  `{"commits":["` + id + `"]}`,
		"follow": `{"commits":["` + id + `"]}`,
		"audit":  "",
	}
	endpoints := []string{"check", "batch", "follow", "audit"}

	outcomeTotal := func() (n uint64) {
		for _, smp := range s.Metrics().Snapshot() {
			if strings.HasPrefix(smp.Name, "requests_outcome_total{") {
				v, err := strconv.ParseUint(smp.Value, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", smp.Name, err)
				}
				n += v
			}
		}
		return n
	}
	expect := func(endpoint, body string, status int, outcome string) {
		t.Helper()
		series := s.Metrics().Counter("requests_outcome_total",
			metrics.L("endpoint", endpoint), metrics.L("outcome", outcome))
		before, total, records := series.Value(), outcomeTotal(), len(s.Flight().Records())

		method := http.MethodPost
		if endpoint == "audit" {
			method = http.MethodGet
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, "/"+endpoint, strings.NewReader(body)))

		if rr.Code != status {
			t.Errorf("/%s: status %d, want %d: %.120q", endpoint, rr.Code, status, rr.Body.String())
		}
		rid := rr.Header().Get("X-JMake-Request-Id")
		if rid == "" {
			t.Errorf("/%s %d: no X-JMake-Request-Id", endpoint, status)
		}
		if status == http.StatusTooManyRequests && rr.Header().Get("Retry-After") == "" {
			t.Errorf("/%s: 429 without Retry-After", endpoint)
		}
		if d := series.Value() - before; d != 1 {
			t.Errorf("/%s %d: requests_outcome_total{endpoint=%s,outcome=%s} rose by %d, want 1", endpoint, status, endpoint, outcome, d)
		}
		if d := outcomeTotal() - total; d != 1 {
			t.Errorf("/%s %d: requests_outcome_total rose by %d in all, want 1", endpoint, status, d)
		}
		if d := len(s.Flight().Records()) - records; d != 1 {
			t.Errorf("/%s %d: %d flight records added, want 1", endpoint, status, d)
		}
		if rec, ok := s.Flight().Find(rid); rid != "" && (!ok || rec.Endpoint != endpoint || rec.Outcome != outcome || rec.Status != status) {
			t.Errorf("/%s %d: flight record for %q = %+v (found %v)", endpoint, status, rid, rec, ok)
		}
	}

	// The only slot and the only queue place are taken: shed.
	s.sem <- struct{}{}
	s.queue <- struct{}{}
	for _, ep := range endpoints {
		expect(ep, bodies[ep], http.StatusTooManyRequests, obs.OutcomeShed)
	}
	// The queue place is free: each request waits out its 50 ms deadline.
	<-s.queue
	for _, ep := range endpoints {
		expect(ep, bodies[ep], http.StatusGatewayTimeout, obs.OutcomeTimeout)
	}
	<-s.sem
	if n := counterValue(s.Metrics(), "daemon_audit_runs"); n != 0 {
		t.Errorf("audit ran %d times without an admission slot", n)
	}

	// Over-limit bodies are refused before admission.
	huge := `{"pad":"` + strings.Repeat("x", 5<<20) + `"}`
	for _, ep := range []string{"check", "batch", "follow"} {
		expect(ep, huge, http.StatusRequestEntityTooLarge, obs.OutcomeError)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx, nil); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, ep := range endpoints {
		expect(ep, bodies[ep], http.StatusServiceUnavailable, obs.OutcomeDraining)
	}
	if n := counterValue(s.Metrics(), "daemon_audit_runs"); n != 0 {
		t.Errorf("audit ran %d times while refused", n)
	}
}

// TestDeadline504: a held check with a short deadline must answer 504
// with an honestly-labeled partial report — never block past the
// deadline, never wedge the worker.
func TestDeadline504(t *testing.T) {
	s, ts := newTestServer(t, nil)
	id := s.Commits()[len(s.Commits())-1]

	start := time.Now()
	status, body := postCheck(t, ts, checkRequest{Commit: id, DeadlineMS: 60, DebugHoldMS: 10_000})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not honored: request took %v", elapsed)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("undecodable 504 body: %v", err)
	}
	var partial jmake.Report
	if err := json.Unmarshal(er.Report, &partial); err != nil {
		t.Fatalf("504 without a decodable partial report: %v", err)
	}
	if !partial.Interrupted {
		t.Error("partial report not marked Interrupted")
	}
	for _, f := range partial.Files {
		if f.Status == jmake.StatusCertified {
			t.Errorf("%s certified on a timed-out check", f.Path)
		}
	}
	if counterValue(s.Metrics(), "requests_timed_out") == 0 {
		t.Error("timeout not counted")
	}

	// The worker is not wedged: the next plain request succeeds.
	status, _ = postCheck(t, ts, checkRequest{Commit: id})
	if status != http.StatusOK {
		t.Fatalf("request after timeout: status %d", status)
	}
}

// TestPanicRecoveryAndTripwire: a panicking check answers 500, the warm
// state is canary-verified before reuse, and subsequent requests serve
// the same bytes as before the panic.
func TestPanicRecoveryAndTripwire(t *testing.T) {
	s, ts := newTestServer(t, nil)
	id := s.Commits()[len(s.Commits())-1]

	status, before := postCheck(t, ts, checkRequest{Commit: id})
	if status != http.StatusOK {
		t.Fatalf("pre-panic request: status %d", status)
	}

	status, body := postCheck(t, ts, checkRequest{Commit: id, DebugPanic: true})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d: %s", status, body)
	}
	if counterValue(s.Metrics(), "daemon_panics") != 1 {
		t.Errorf("daemon_panics = %d, want 1", counterValue(s.Metrics(), "daemon_panics"))
	}
	if counterValue(s.Metrics(), "daemon_tripwire_ok") != 1 {
		t.Errorf("daemon_tripwire_ok = %d, want 1 (canary must be re-verified)", counterValue(s.Metrics(), "daemon_tripwire_ok"))
	}

	status, after := postCheck(t, ts, checkRequest{Commit: id})
	if status != http.StatusOK {
		t.Fatalf("post-panic request: status %d", status)
	}
	if !bytes.Equal(before, after) {
		t.Error("post-panic report differs from pre-panic report")
	}
}

// TestTripwireRebuild: when the canary comparison fails (state genuinely
// poisoned), the session is rebuilt and service continues correctly.
func TestTripwireRebuild(t *testing.T) {
	s, ts := newTestServer(t, nil)
	id := s.Commits()[len(s.Commits())-1]
	status, before := postCheck(t, ts, checkRequest{Commit: id})
	if status != http.StatusOK {
		t.Fatalf("pre-poison request: status %d", status)
	}

	// Poison the recorded canary so the next tripwire run cannot match.
	s.canaryJSON = []byte("poisoned")
	status, _ = postCheck(t, ts, checkRequest{Commit: id, DebugPanic: true})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d", status)
	}
	if counterValue(s.Metrics(), "daemon_session_rebuilds") != 1 {
		t.Errorf("daemon_session_rebuilds = %d, want 1", counterValue(s.Metrics(), "daemon_session_rebuilds"))
	}
	status, after := postCheck(t, ts, checkRequest{Commit: id})
	if status != http.StatusOK {
		t.Fatalf("post-rebuild request: status %d", status)
	}
	if !bytes.Equal(before, after) {
		t.Error("rebuilt session serves different bytes")
	}
}

// TestDrain: shutdown mid-burst lets accepted requests finish, refuses
// new ones, and flushes the persistent cache tier exactly once — even
// when Shutdown is called twice.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, func(c *Config) {
		c.Cache = cliopts.Cache{Dir: dir}
	})
	id := s.Commits()[len(s.Commits())-1]

	inFlight := make(chan int, 1)
	go func() {
		status, _ := postCheck(t, ts, checkRequest{Commit: id, DebugHoldMS: 300})
		inFlight <- status
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.inflight.Value() == 0 {
		t.Fatal("held request never became in-flight")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx, nil); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if status := <-inFlight; status != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", status)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while drained: %d, want 503", resp.StatusCode)
	}
	if status, _ := postCheck(t, ts, checkRequest{Commit: id}); status != http.StatusServiceUnavailable {
		t.Errorf("/check while drained: %d, want 503", status)
	}

	if err := s.Shutdown(ctx, nil); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if n := counterValue(s.Metrics(), "daemon_cache_flushes"); n != 1 {
		t.Errorf("daemon_cache_flushes = %d, want exactly 1", n)
	}
	// The flush actually reached disk.
	rc := jmake.LoadResultCache(dir)
	if rc.Stats().Entries == 0 {
		t.Error("drained cache tier is empty on disk")
	}
}

// TestChaosHTTP drives the fault-injection layer through the public
// request API: every 200 answer must uphold the safety invariant and the
// daemon must stay healthy — the HTTP surface adds no new way to lie.
func TestChaosHTTP(t *testing.T) {
	s, ts := newTestServer(t, nil)
	ids := windowTail(s, 4)
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, id := range ids {
			status, body := postCheck(t, ts, checkRequest{
				Commit:  id,
				Options: cliopts.Check{FaultRate: 0.25, FaultSeed: seed},
			})
			if status != http.StatusOK {
				t.Fatalf("seed %d %s: status %d: %s", seed, id, status, body)
			}
			assertReportSafety(t, id, body)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unhealthy after chaos: %d", resp.StatusCode)
	}
}

// TestBatchDeadline: a batch that cannot finish within its deadline
// answers every commit in order — reports for the checked prefix, an
// explicit deadline error for the rest — and never drops entries.
func TestBatchDeadline(t *testing.T) {
	s, ts := newTestServer(t, nil)
	ids := s.Commits()
	// Cycle the window until the batch cannot possibly finish in time.
	commits := make([]string, 0, 2000)
	for len(commits) < 2000 {
		commits = append(commits, ids...)
	}
	data, _ := json.Marshal(batchRequest{Commits: commits, DeadlineMS: 80})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out []batchEntry
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(commits) {
		t.Fatalf("batch answered %d entries for %d commits", len(out), len(commits))
	}
	canceled := 0
	for i, e := range out {
		if e.Commit != commits[i] {
			t.Fatalf("entry %d out of order: %s != %s", i, e.Commit, commits[i])
		}
		if e.Report == nil && e.Error == "" {
			t.Fatalf("entry %d has neither report nor error", i)
		}
		if e.Error != "" {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("80ms deadline over 2000 checks produced no deadline errors")
	}
}

// TestMetricsEndpoints exercises /healthz, /readyz, /metricsz and
// /commits shapes.
func TestMetricsEndpoints(t *testing.T) {
	s, ts := newTestServer(t, nil)
	id := s.Commits()[0]
	if status, _ := postCheck(t, ts, checkRequest{Commit: id}); status != http.StatusOK {
		t.Fatalf("seed request failed")
	}
	for _, path := range []string{"/healthz", "/readyz", "/commits", "/metricsz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if path == "/metricsz" {
			var p metricszPayload
			if err := json.Unmarshal(body, &p); err != nil {
				t.Fatalf("/metricsz not JSON: %v", err)
			}
			if p.Latency.Count == 0 {
				t.Error("/metricsz latency count is 0 after a request")
			}
			if len(p.Daemon) == 0 || len(p.Session) == 0 {
				t.Error("/metricsz missing registry snapshots")
			}
		}
	}
	// Unknown commit is a clean 404-class error, not a panic.
	if status, _ := postCheck(t, ts, checkRequest{Commit: "no-such-commit"}); status != http.StatusNotFound {
		t.Errorf("unknown commit: status %d, want 404", status)
	}
}

// postFollow posts one /follow stream and decodes its NDJSON entries.
func postFollow(t *testing.T, ts *httptest.Server, req followRequest) (int, []followEntry) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/follow", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST /follow: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /follow: status %d: %s", resp.StatusCode, body)
	}
	var out []followEntry
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var e followEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("decoding follow entry %d: %v", len(out), err)
		}
		out = append(out, e)
	}
	return resp.StatusCode, out
}

// TestFollowStream: /follow answers one entry per commit in order, each
// report byte-identical (modulo the entry's compact rendering) to what
// /check serves for the same commit; a second stream that picks up where
// the first stopped continues the resident follower warm instead of
// reseeding, and a stream behind the cursor reseeds.
func TestFollowStream(t *testing.T) {
	s, ts := newTestServer(t, nil)
	ids := windowTail(s, 8)
	if len(ids) < 4 {
		t.Fatalf("window too small: %d commits", len(ids))
	}
	first, second := ids[:len(ids)/2], ids[len(ids)/2:]

	compactCheck := func(id string) []byte {
		status, body := postCheck(t, ts, checkRequest{Commit: id})
		if status != http.StatusOK {
			t.Fatalf("/check %s: status %d", id, status)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	assertEntries := func(entries []followEntry, want []string) {
		t.Helper()
		if len(entries) != len(want) {
			t.Fatalf("stream answered %d entries for %d commits", len(entries), len(want))
		}
		for i, e := range entries {
			if e.Commit != want[i] {
				t.Fatalf("entry %d out of order: %s != %s", i, e.Commit, want[i])
			}
			if e.Error != "" {
				t.Fatalf("%s: unexpected stream error: %s", e.Commit, e.Error)
			}
			if !bytes.Equal(e.Report, compactCheck(e.Commit)) {
				t.Errorf("%s: /follow report differs from /check report", e.Commit)
			}
			if e.EffectiveSeconds > e.VirtualSeconds+1e-9 {
				t.Errorf("%s: effective %.3fs exceeds virtual %.3fs", e.Commit, e.EffectiveSeconds, e.VirtualSeconds)
			}
		}
	}

	_, entries := postFollow(t, ts, followRequest{Commits: first})
	assertEntries(entries, first)
	if n := counterValue(s.Metrics(), "daemon_follow_seeds"); n != 1 {
		t.Fatalf("daemon_follow_seeds = %d after first stream, want 1", n)
	}

	// Second stream continues past the first one's cursor: warm, no reseed.
	_, entries = postFollow(t, ts, followRequest{Commits: second})
	assertEntries(entries, second)
	if n := counterValue(s.Metrics(), "daemon_follow_continues"); n != 1 {
		t.Errorf("daemon_follow_continues = %d after continuation, want 1", n)
	}
	if n := counterValue(s.Metrics(), "daemon_follow_seeds"); n != 1 {
		t.Errorf("daemon_follow_seeds = %d after continuation, want 1 (no reseed)", n)
	}
	var virtual, effective float64
	for _, e := range entries {
		virtual += e.VirtualSeconds
		effective += e.EffectiveSeconds
	}
	if virtual > 0 && effective >= virtual {
		t.Errorf("warm continuation saved nothing: effective %.3fs, virtual %.3fs", effective, virtual)
	}

	// A stream behind the cursor cannot continue: it reseeds, and still
	// serves the same bytes.
	_, entries = postFollow(t, ts, followRequest{Commits: first})
	assertEntries(entries, first)
	if n := counterValue(s.Metrics(), "daemon_follow_seeds"); n != 2 {
		t.Errorf("daemon_follow_seeds = %d after behind-cursor stream, want 2", n)
	}
}

// TestFollowRefusesOutOfOrderStream: a stream out of history order is
// refused with 400 before any follower is built, and the resident
// follower keeps its cursor, so the next in-order stream continues warm.
func TestFollowRefusesOutOfOrderStream(t *testing.T) {
	s, ts := newTestServer(t, nil)
	ids := windowTail(s, 5)
	if len(ids) < 5 {
		t.Fatalf("window too small: %d commits", len(ids))
	}
	postFollow(t, ts, followRequest{Commits: ids[:2]})

	data, err := json.Marshal(followRequest{Commits: []string{ids[4], ids[3]}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/follow", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST /follow: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-order stream: status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "is not after follower cursor") {
		t.Errorf("refusal does not carry the stream plan's message: %s", body)
	}
	if n := counterValue(s.Metrics(), "daemon_follow_seeds"); n != 1 {
		t.Errorf("daemon_follow_seeds = %d after the refusal, want 1", n)
	}
	if n := counterValue(s.Metrics(), "daemon_follower_discards"); n != 0 {
		t.Errorf("daemon_follower_discards = %d after the refusal, want 0", n)
	}

	_, entries := postFollow(t, ts, followRequest{Commits: ids[2:3]})
	if len(entries) != 1 || entries[0].Commit != ids[2] || entries[0].Error != "" {
		t.Fatalf("in-order stream after the refusal: %+v", entries)
	}
	if n := counterValue(s.Metrics(), "daemon_follow_continues"); n != 1 {
		t.Errorf("daemon_follow_continues = %d, want 1 (the resident follower continued)", n)
	}
	if n := counterValue(s.Metrics(), "daemon_follow_seeds"); n != 1 {
		t.Errorf("daemon_follow_seeds = %d after continuing, want 1", n)
	}
}

// TestFollowDeadline: a stream that cannot finish within its deadline
// labels the unfinished tail honestly — an error (with partial report
// where one exists) for every commit the deadline caught, no silently
// dropped entries — and the next stream still serves correct bytes.
func TestFollowDeadline(t *testing.T) {
	s, ts := newTestServer(t, nil)
	ids := windowTail(s, 6)

	_, entries := postFollow(t, ts, followRequest{Commits: ids, DeadlineMS: 1})
	if len(entries) != len(ids) {
		t.Fatalf("deadline stream answered %d entries for %d commits", len(entries), len(ids))
	}
	interrupted := 0
	for i, e := range entries {
		if e.Commit != ids[i] {
			t.Fatalf("entry %d out of order: %s != %s", i, e.Commit, ids[i])
		}
		if e.Error != "" {
			interrupted++
		}
	}
	if interrupted == 0 {
		t.Error("1ms deadline over the window produced no deadline errors")
	}

	// Service intact afterwards: a fresh stream (reseeded past the
	// interrupted follower) matches /check bytes.
	id := ids[len(ids)-1]
	status, body := postCheck(t, ts, checkRequest{Commit: id})
	if status != http.StatusOK {
		t.Fatalf("/check after deadline stream: status %d", status)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		t.Fatal(err)
	}
	_, entries = postFollow(t, ts, followRequest{Commits: []string{id}, Reseed: true})
	if len(entries) != 1 || entries[0].Error != "" {
		t.Fatalf("post-deadline stream broken: %+v", entries)
	}
	if !bytes.Equal(entries[0].Report, buf.Bytes()) {
		t.Error("post-deadline follow report differs from /check report")
	}
}
