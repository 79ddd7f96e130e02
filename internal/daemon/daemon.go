// Package daemon is jmaked's service core: a long-lived check service
// that keeps a warm jmake.Session (arch index, Kconfig valuations, lexed
// tokens, the in-memory compile-result cache) resident across requests,
// so interactive clients pay generation and warm-up cost once instead of
// per invocation.
//
// The robustness surface is the point of the package, not an accessory:
//
//   - Bounded admission: /check, /batch, /follow and /audit enter through
//     one gate (Server.gate). At most MaxInFlight of them run concurrently
//     and at most MaxQueue more may wait; beyond that the server sheds
//     load with 429 and a Retry-After priced by the virtual-clock backoff
//     model, rather than queueing without bound until memory runs out.
//   - Deadlines: every request carries a deadline (default, capped),
//     propagated as a context and polled by the checker at stage
//     boundaries (core.Options.Interrupt). A deadline expiry yields 504
//     with an honestly-labeled partial report — never a wedged worker.
//   - Panic isolation: a panicking check answers 500 and the worker
//     survives. Because a panic mid-check could corrupt the shared warm
//     state, a tripwire then re-runs a canary commit and byte-compares
//     its report against the one recorded at startup; any difference
//     discards the session and rebuilds it from scratch.
//   - Graceful drain: Shutdown stops admitting, lets in-flight requests
//     finish (or hit their deadlines), and flushes the persistent cache
//     tier exactly once.
//
// Besides one-shot /check and /batch, the server follows commit streams
// incrementally: POST /follow holds one admission slot for a whole
// ordered commit list, drives it through a resident incr.Follower (its
// own warm session, separate from the one-shot session), and streams
// one NDJSON entry per commit as each check finishes. Re-posting a
// stream that picks up where the last one stopped continues warm, so
// per-commit cost is proportional to the diff.
//
// Reports served on the happy path are byte-identical to `jmake -commit
// <id> -json` over the same workspace flags: both paths run the jmake
// facade's one commit check with the same deterministic virtual-clock
// model, and the caches only change compute, never verdicts.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jmake"
	"jmake/internal/audit"
	"jmake/internal/cliopts"
	"jmake/internal/metrics"
	"jmake/internal/obs"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// Config tunes one Server.
type Config struct {
	// Addr is the listen address (cmd/jmaked only; tests use Handler).
	Addr string
	// MaxInFlight bounds concurrently running checks; <1 means 2.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// the server sheds with 429. <0 means 0 (shed immediately when all
	// slots are busy); 0 means the default 8.
	MaxQueue int
	// DefaultDeadline applies when a request does not set deadline_ms;
	// 0 means 60s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines; 0 means 5m.
	MaxDeadline time.Duration
	// Workspace selects the generated tree and history to serve.
	Workspace cliopts.Workspace
	// Cache configures the session's compile-result cache, including the
	// persistent tier flushed on drain.
	Cache cliopts.Cache
	// Debug enables the debug_panic / debug_hold_ms request fields used
	// by tests and load drills. Never enable in normal service.
	Debug bool
	// Logger receives the structured NDJSON event stream (one line per
	// request plus lifecycle events); nil means INFO to stderr.
	Logger *obs.Logger
	// FlightSize is the flight-recorder ring capacity; 0 selects
	// obs.DefaultFlightRecorderSize.
	FlightSize int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 2
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = obs.New(os.Stderr, obs.Info)
	}
	return c
}

// Server is the daemon state shared across requests.
type Server struct {
	cfg   Config
	built *cliopts.Built

	// mu guards session: readers (checks) share it, the tripwire swaps
	// it wholesale after a suspect panic.
	mu      sync.RWMutex
	session *jmake.Session

	// reg owns the daemon-side request metrics. The session keeps its own
	// registry (cache counters live there and die with a rebuilt session);
	// /metricsz snapshots both.
	reg       *metrics.Registry
	latency   *metrics.Histogram
	queueWait *metrics.Histogram
	inflight  *metrics.Gauge
	queued    *metrics.Gauge

	// flight is the ring of recent request records served at
	// /debugz/requests; each record keeps its stamped trace until
	// evicted, which is what /tracez/<request-id> serves.
	flight *obs.FlightRecorder
	// reqSeq numbers requests deterministically: the ID depends only on
	// arrival order and the commit, never on the clock.
	reqSeq atomic.Uint64

	// model prices Retry-After on shed responses with the same capped
	// exponential backoff the checker charges for its own retries.
	model      *vclock.Model
	shedStreak atomic.Int64

	sem   chan struct{}
	queue chan struct{}

	draining  atomic.Bool
	flushOnce sync.Once

	// followMu serializes /follow streams over the resident follower,
	// which is single-goroutine by contract. The follower carries its own
	// warm session, separate from the one-shot session above; it is
	// created lazily on the first stream, continued warm when the next
	// stream picks up where the last one stopped, and discarded after a
	// panic or stream error.
	followMu     sync.Mutex
	follower     *jmake.Follower
	followerOpts string
	// followCtx is the deadline context of the stream currently driving
	// the follower; the follower's Interrupt hook reads it.
	followCtx atomic.Pointer[context.Context]

	// auditOnce computes the whole-tree audit report lazily on the first
	// /audit request; the workspace tree is immutable for the daemon's
	// lifetime, so the serialized report is cached forever after.
	auditOnce sync.Once
	auditJSON []byte
	auditErr  error

	canaryID   string
	canaryJSON []byte
}

// latencyBuckets are request-latency histogram bounds in seconds.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// New generates the workspace, warms the session, records the canary
// report, and returns a ready Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	built, err := cfg.Workspace.Build()
	if err != nil {
		return nil, fmt.Errorf("daemon: building workspace: %w", err)
	}
	if len(built.WindowIDs) == 0 {
		return nil, fmt.Errorf("daemon: empty patch window")
	}
	s := &Server{
		cfg:   cfg,
		built: built,
		reg:   metrics.NewRegistry(),
		model: vclock.DefaultModel(uint64(len(built.WindowIDs))),
		sem:   make(chan struct{}, cfg.MaxInFlight),
		queue: make(chan struct{}, cfg.MaxQueue),
	}
	s.latency = s.reg.Histogram("request_latency_seconds", latencyBuckets)
	s.queueWait = s.reg.Histogram("queue_wait_seconds", latencyBuckets)
	s.inflight = s.reg.Gauge("requests_inflight")
	s.queued = s.reg.Gauge("requests_queued")
	s.flight = obs.NewFlightRecorder(cfg.FlightSize)
	if err := s.rebuildSession(); err != nil {
		return nil, err
	}
	// The canary is the window's tip commit: checked once at startup, its
	// report is the invariant the panic tripwire re-verifies before the
	// warm session is trusted again.
	s.canaryID = built.WindowIDs[len(built.WindowIDs)-1]
	canary, _, err := s.checkOne(context.Background(), s.canaryID, cliopts.Check{})
	if err != nil {
		return nil, fmt.Errorf("daemon: canary check: %w", err)
	}
	s.canaryJSON = marshalReport(canary)
	return s, nil
}

// rebuildSession replaces the warm session with a fresh one over the
// window base, re-wiring the cache flags (a -cache-dir warm start makes
// the rebuild cheap again).
func (s *Server) rebuildSession() error {
	session, err := s.built.SessionAt(s.built.WindowIDs[0])
	if err != nil {
		return fmt.Errorf("daemon: session: %w", err)
	}
	s.cfg.Cache.Apply(session)
	s.mu.Lock()
	s.session = session
	s.mu.Unlock()
	return nil
}

// marshalReport is THE report serialization: the same bytes `jmake
// -commit <id> -json` prints, so a daemon answer can be diffed against
// the batch CLI directly.
func marshalReport(r *jmake.Report) []byte {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// PatchReport contains only marshalable fields; reaching this is a
		// programming error worth crashing the request, not the daemon.
		panic(fmt.Sprintf("daemon: marshaling report: %v", err))
	}
	return append(data, '\n')
}

// checkOne runs one commit check against the warm session, honoring ctx
// at the checker's stage boundaries. It always records the span tree, so
// every flight record carries one and /tracez can answer for any recent
// request; the canary and the tripwire ignore it. Tracing never changes
// report bytes, which the daemon byte-identity tests re-prove.
func (s *Server) checkOne(ctx context.Context, id string, chk cliopts.Check) (*jmake.Report, *jmake.TraceSpan, error) {
	opts := chk.Options()
	if opts.Interrupt == nil {
		opts.Interrupt = func() bool { return ctx.Err() != nil }
	}
	s.mu.RLock()
	session := s.session
	s.mu.RUnlock()
	return jmake.CheckCommitTraced(session, s.built.Hist.Repo, id, opts)
}

// nextRequestID mints the deterministic per-request ID: an arrival-order
// sequence number plus a commit prefix (a range's first commit; the
// endpoint when the request names none), so operators can correlate a
// log line, a flight record, and a /tracez lookup without any clock or
// randomness in the identity.
func (s *Server) nextRequestID(commit, endpoint string) string {
	tag, _, _ := strings.Cut(commit, "..")
	if len(tag) > 8 {
		tag = tag[:8]
	}
	if tag == "" {
		tag = endpoint
	}
	return fmt.Sprintf("r%06d-%s", s.reqSeq.Add(1), tag)
}

// traceFormatFor resolves the requested sidecar format from the ?trace=
// query parameter or the X-JMake-Trace header ("" means no sidecar).
func traceFormatFor(r *http.Request) (string, error) {
	f := r.URL.Query().Get("trace")
	if f == "" {
		f = r.Header.Get("X-JMake-Trace")
	}
	switch f {
	case "", "tree", "chrome", "summary":
		return f, nil
	}
	return "", fmt.Errorf("unknown trace format %q (want tree|chrome|summary)", f)
}

// renderTraceArtifact renders the stamped trace in one of the three CLI
// formats, byte-identical to what `jmake -commit ID -trace-out/-trace-tree`
// writes (chrome uses the CLI's 4 lanes) or jmake-eval's summary table.
func renderTraceArtifact(tr *jmake.SessionTrace, format string) []byte {
	switch format {
	case "chrome":
		return tr.Chrome(4)
	case "summary":
		return []byte(tr.RenderSummary())
	default: // "tree"
		return []byte(tr.Tree())
	}
}

// sidecarEnvelope assembles the traced /check response by hand: the
// report bytes are embedded verbatim (running them back through
// encoding/json would re-indent them and break the byte-identity
// guarantee), and the trace artifact rides as a JSON string beside them.
func sidecarEnvelope(requestID, format string, artifact, report []byte) []byte {
	var b bytes.Buffer
	b.WriteString("{\n  \"request_id\": ")
	b.Write(mustJSON(requestID))
	b.WriteString(",\n  \"trace_format\": ")
	b.Write(mustJSON(format))
	b.WriteString(",\n  \"trace\": ")
	b.Write(mustJSON(string(artifact)))
	b.WriteString(",\n  \"report\": ")
	b.Write(bytes.TrimSuffix(report, []byte("\n")))
	b.WriteString("\n}\n")
	return b.Bytes()
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("daemon: marshaling sidecar field: %v", err))
	}
	return data
}

// traceStats derives the deterministic per-request numbers a flight
// record carries from the stamped trace: cache compute/reuse counts over
// keyed spans and a compact per-stage summary line.
func traceStats(tr *jmake.SessionTrace) (compute, reuse int, summary string) {
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		if sp.Key != 0 {
			switch v, _ := sp.Attr("cache"); v {
			case "compute":
				compute++
			case "reuse":
				reuse++
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range tr.Spans {
		walk(sp)
	}
	var parts []string
	for _, l := range tr.Summarize() {
		parts = append(parts, fmt.Sprintf("%s/%s=%d:%.1fs", l.Stage, l.Arch, l.Count, l.Virtual.Seconds()))
	}
	return compute, reuse, strings.Join(parts, " ")
}

// admit implements bounded admission for the gate: it waits for an
// in-flight slot under c's deadline and returns the slot's release func.
// When the wait queue is full it answers 429 with Retry-After, and when
// the deadline expires in the queue it answers 504; both return nil.
func (s *Server) admit(c *call) (release func()) {
	queued := time.Now()
	defer func() { s.queueWait.Observe(time.Since(queued).Seconds()) }()
	release = func() {
		<-s.sem
		s.inflight.Add(-1)
	}
	select {
	case s.sem <- struct{}{}:
		s.shedStreak.Store(0)
		s.inflight.Add(1)
		return release
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		// Queue full: shed now. The advised wait grows with the shed
		// streak on the checker's own capped backoff curve, so a thundering
		// herd is told to spread out further the longer the overload lasts.
		streak := min(int(s.shedStreak.Add(1)), 8)
		retryAfter := s.model.Backoff(streak, "admission")
		s.reg.Counter("requests_shed").Inc()
		c.w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds()+0.999)))
		c.fail(http.StatusTooManyRequests, obs.OutcomeShed,
			fmt.Sprintf("admission queue full; advised retry in %v", retryAfter), "overloaded, retry later")
		return nil
	}
	s.queued.Add(1)
	defer func() {
		<-s.queue
		s.queued.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		s.shedStreak.Store(0)
		s.inflight.Add(1)
		return release
	case <-c.ctx.Done():
		s.reg.Counter("requests_expired_queued").Inc()
		c.fail(http.StatusGatewayTimeout, obs.OutcomeTimeout, "deadline expired while queued", "deadline expired while queued")
		return nil
	}
}

// deadlineFor resolves a request's deadline from deadline_ms, bounded by
// the configured cap.
func (s *Server) deadlineFor(ms int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	mux.HandleFunc("/commits", s.handleCommits)
	mux.HandleFunc("/check", s.handleCheck)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/follow", s.handleFollow)
	mux.HandleFunc("/audit", s.handleAudit)
	mux.HandleFunc("/tracez/", s.handleTracez)
	mux.HandleFunc("/debugz/requests", s.handleDebugzRequests)
	return mux
}

// handleTracez serves the span tree of a recent request by ID, in any of
// the CLI trace formats (?format=tree|chrome|summary, default tree). The
// body is the raw artifact — byte-identical to the file the one-shot CLI
// would write for the same commit. Records evicted from the flight
// recorder answer 404: the ring is the retention policy.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	rid := strings.TrimPrefix(r.URL.Path, "/tracez/")
	if rid == "" || strings.Contains(rid, "/") {
		http.Error(w, "want /tracez/<request-id>", http.StatusBadRequest)
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "":
		format = "tree"
	case "tree", "chrome", "summary":
	default:
		http.Error(w, fmt.Sprintf("unknown trace format %q (want tree|chrome|summary)", format), http.StatusBadRequest)
		return
	}
	rec, ok := s.flight.Find(rid)
	if !ok || rec.Trace == nil {
		http.Error(w, "no trace for request "+rid+" (unknown, evicted, or never ran a check)", http.StatusNotFound)
		return
	}
	if format == "chrome" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Write(renderTraceArtifact(rec.Trace, format))
}

// handleDebugzRequests dumps the flight recorder, oldest first: the
// post-mortem surface for "what were the last N requests and how did
// they die". Field order within each record is fixed by obs.Record.
func (s *Server) handleDebugzRequests(w http.ResponseWriter, r *http.Request) {
	recs := s.flight.Records()
	writeJSON(w, http.StatusOK, struct {
		Capacity int          `json:"capacity"`
		Count    int          `json:"count"`
		Records  []obs.Record `json:"records"`
	}{s.flight.Cap(), len(recs), recs})
}

// handleAudit serves the whole-tree configuration-mismatch report over the
// workspace's generated tree, with the manifest's intentional escape-class
// symbols suppressed so a clean workspace audits to zero findings. The
// Kconfig parses come from the warm session's shared per-arch cache, and
// the serialized bytes are audit.Report.JSON — identical to `jmake-lint
// -audit -json -baseline <manifest baseline>` over the emitted tree. The
// first request computes the report under its admission slot.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	s.gate(w, r, "audit", nil, func(c *call) {
		s.auditOnce.Do(func() {
			ignore := make(map[string]bool, len(s.built.Manifest.AuditBaseline))
			for _, sym := range s.built.Manifest.AuditBaseline {
				ignore[sym] = true
			}
			s.mu.RLock()
			session := s.session
			s.mu.RUnlock()
			rep, err := audit.Run(audit.Params{
				Tree:    s.built.Tree,
				Ignore:  ignore,
				Workers: s.cfg.MaxInFlight,
				Kconfig: session.KconfigProvider(s.built.Tree),
			})
			if err != nil {
				s.auditErr = err
				return
			}
			s.auditJSON, s.auditErr = rep.JSON()
			s.reg.Counter("daemon_audit_runs").Inc()
		})
		if s.auditErr != nil {
			msg := "audit: " + s.auditErr.Error()
			c.fail(http.StatusInternalServerError, obs.OutcomeError, msg, msg)
			return
		}
		c.rec.Outcome, c.rec.Status = obs.OutcomeOK, http.StatusOK
		w.Header().Set("Content-Type", "application/json")
		w.Write(s.auditJSON)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and the warm session is present. Health
	// stays true while draining — the process is healthy, just not ready.
	s.mu.RLock()
	alive := s.session != nil
	s.mu.RUnlock()
	if !alive {
		http.Error(w, "no session", http.StatusInternalServerError)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// metricszPayload is the /metricsz response shape.
type metricszPayload struct {
	Daemon  []metrics.Sample `json:"daemon"`
	Session []metrics.Sample `json:"session"`
	Latency struct {
		Count uint64  `json:"count"`
		P50   float64 `json:"p50"`
		P95   float64 `json:"p95"`
		P99   float64 `json:"p99"`
	} `json:"latency"`
	InFlight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
}

// wantsPrometheus decides /metricsz content negotiation: explicit
// ?format=prometheus|json wins, else an Accept header asking for
// text/plain (what a Prometheus scraper sends) selects the exposition
// format; the JSON snapshot stays the default for bare curls.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.mu.RLock()
		session := s.session
		s.mu.RUnlock()
		w.Header().Set("Content-Type", metrics.TextContentType)
		metrics.WriteText(w, s.reg, session.Metrics())
		return
	}
	var p metricszPayload
	p.Daemon = s.reg.Snapshot()
	s.mu.RLock()
	p.Session = s.session.Metrics().Snapshot()
	s.mu.RUnlock()
	p.Latency.Count = s.latency.Count()
	p.Latency.P50 = s.latency.Quantile(0.50)
	p.Latency.P95 = s.latency.Quantile(0.95)
	p.Latency.P99 = s.latency.Quantile(0.99)
	p.InFlight = s.inflight.Value()
	p.Queued = s.queued.Value()
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleCommits(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Commits []string `json:"commits"`
	}{s.built.WindowIDs})
}

// maxBodyBytes bounds every gated request body. The 12,946 IDs of a
// commit-scale-1.0 window encode in about 0.56 MB.
const maxBodyBytes = 4 << 20

// request is a gated endpoint's JSON body.
type request interface {
	// validate checks the decoded body, and the trace format r asks for
	// where the endpoint serves one, and names the commit or commit range
	// the request covers.
	validate(r *http.Request) (commit string, err error)
	// deadline is the client's deadline_ms; 0 selects the default.
	deadline() int64
}

// checkRequest is the /check request body. Options uses the same JSON
// schema as the CLI flag struct (cliopts.Check).
type checkRequest struct {
	Commit     string        `json:"commit"`
	Options    cliopts.Check `json:"options"`
	DeadlineMS int64         `json:"deadline_ms,omitempty"`
	// Debug-only fault hooks (Config.Debug): panic mid-check, or hold the
	// check open to make admission and deadline tests deterministic.
	DebugPanic  bool  `json:"debug_panic,omitempty"`
	DebugHoldMS int64 `json:"debug_hold_ms,omitempty"`

	trace string // sidecar format from ?trace= or X-JMake-Trace
}

func (q *checkRequest) validate(r *http.Request) (string, error) {
	if q.Commit == "" {
		return "", errors.New("missing commit")
	}
	var err error
	q.trace, err = traceFormatFor(r)
	return q.Commit, err
}

func (q *checkRequest) deadline() int64 { return q.DeadlineMS }

// errorResponse is the JSON error envelope for non-200 answers. Report
// carries the partial result on 504 — clearly labeled, never a
// certification the checker did not earn. RequestID lets the client pull
// the flight record and trace for the failed request.
type errorResponse struct {
	Error     string          `json:"error"`
	RequestID string          `json:"request_id,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
}

// call is one request inside the gate: its response writer, its deadline
// context, and the record the gate finishes when the endpoint returns.
// The endpoint sets the record's outcome, status and cause.
type call struct {
	w       http.ResponseWriter
	ctx     context.Context
	rec     obs.Record
	arrived time.Time
}

// fail answers the call with the error envelope and sets the record's
// outcome, status and cause to match.
func (c *call) fail(status int, outcome, cause, msg string) {
	c.rec.Outcome, c.rec.Status, c.rec.Cause = outcome, status, cause
	writeJSON(c.w, status, errorResponse{Error: msg, RequestID: c.rec.RequestID})
}

// gate is the one way into /check, /batch, /follow and /audit. It
// decodes at most maxBodyBytes of the body into req (nil for an endpoint
// without one), mints the request ID, answers 503 while draining, and
// admits the request under its deadline (see admit). An admitted request
// runs serve while it holds its slot. Every exit, the gate's own and
// serve's, leaves through finishRequest exactly once, so each request ID
// names one log line, one outcome count and one flight record.
func (s *Server) gate(w http.ResponseWriter, r *http.Request, endpoint string, req request, serve func(*call)) {
	c := &call{w: w, arrived: time.Now(), rec: obs.Record{Endpoint: endpoint}}
	var (
		status     int
		bad        error
		deadlineMS int64
	)
	if req != nil {
		c.rec.Commit, status, bad = decode(w, r, req)
		deadlineMS = req.deadline()
	}
	c.rec.RequestID = s.nextRequestID(c.rec.Commit, endpoint)
	w.Header().Set("X-JMake-Request-Id", c.rec.RequestID)
	switch {
	case bad != nil:
		c.fail(status, obs.OutcomeError, bad.Error(), bad.Error())
	case s.draining.Load():
		c.fail(http.StatusServiceUnavailable, obs.OutcomeDraining, "", "draining")
	default:
		var cancel context.CancelFunc
		c.ctx, cancel = context.WithTimeout(r.Context(), s.deadlineFor(deadlineMS))
		defer cancel()
		if release := s.admit(c); release != nil {
			defer release()
			serve(c)
		}
	}
	c.rec.WallMillis = wallMillis(c.arrived)
	s.finishRequest(c.rec)
}

// decode reads a POSTed body, at most maxBodyBytes of it, into req and
// validates it. On failure it returns the status to answer with.
func decode(w http.ResponseWriter, r *http.Request, req request) (commit string, status int, err error) {
	if r.Method != http.MethodPost {
		return "", http.StatusMethodNotAllowed, errors.New("POST required")
	}
	err = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return "", http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooLarge.Limit)
	case err != nil:
		return "", http.StatusBadRequest, fmt.Errorf("bad request: %v", err)
	}
	commit, err = req.validate(r)
	return commit, http.StatusBadRequest, err
}

// finishRequest is the single exit point for request accounting: the
// outcome counter, the flight record, and the structured log line all
// derive from one Record, so the three surfaces can never disagree.
func (s *Server) finishRequest(rec obs.Record) {
	s.reg.Counter("requests_outcome_total",
		metrics.L("endpoint", rec.Endpoint), metrics.L("outcome", rec.Outcome)).Inc()
	s.flight.Add(rec)
	fields := []obs.Field{
		obs.F("request_id", rec.RequestID),
		obs.F("endpoint", rec.Endpoint),
		obs.F("commit", rec.Commit),
		obs.F("outcome", rec.Outcome),
		obs.F("status", rec.Status),
	}
	if rec.Cause != "" {
		fields = append(fields, obs.F("cause", rec.Cause))
	}
	fields = append(fields,
		obs.F("wall_ms", rec.WallMillis),
		obs.F("virtual_seconds", rec.VirtualSeconds),
		obs.F("cache_hit_ratio", rec.CacheHitRatio))
	log := s.cfg.Logger
	switch rec.Outcome {
	case obs.OutcomeOK:
		log.Info("request", fields...)
	case obs.OutcomePanic, obs.OutcomeError:
		log.Error("request", fields...)
	default:
		log.Warn("request", fields...)
	}
	if rec.Spans != "" && log.Enabled(obs.Debug) {
		log.Debug("request spans", obs.F("request_id", rec.RequestID), obs.F("spans", rec.Spans))
	}
}

// fillTraceFields derives the record's deterministic fields from the
// request's stamped trace and report.
func fillTraceFields(rec *obs.Record, tr *jmake.SessionTrace, report *jmake.Report) {
	if report != nil {
		rec.VirtualSeconds = report.Total.Seconds()
	}
	if tr == nil {
		return
	}
	rec.Trace = tr
	compute, reuse, spans := traceStats(tr)
	rec.CacheCompute, rec.CacheReuse, rec.Spans = compute, reuse, spans
	if compute+reuse > 0 {
		rec.CacheHitRatio = float64(reuse) / float64(compute+reuse)
	}
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req checkRequest
	s.gate(w, r, "check", &req, func(c *call) {
		report, tr, msg := s.checkStep(c.ctx, req, &c.rec)
		if msg != "" {
			e := errorResponse{Error: msg, RequestID: c.rec.RequestID}
			if report != nil {
				e.Report = marshalReport(report)
			}
			writeJSON(w, c.rec.Status, e)
			return
		}
		body := marshalReport(report)
		if req.trace != "" && tr != nil {
			// Sidecar: the trace artifact rides beside the report as a JSON
			// string; the report bytes inside the envelope are the exact
			// marshalReport bytes, embedded without re-encoding.
			body = sidecarEnvelope(c.rec.RequestID, req.trace, renderTraceArtifact(tr, req.trace), body)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	})
}

// checkStep is the one commit check behind /check and each /batch entry:
// it runs guardedCheck under ctx, times it, merges its span tree, and
// classifies the result into rec's outcome, status and cause beside the
// trace-derived fields. msg is the error the answer carries, "" when the
// check succeeded; report is nil after a panic or an error, and partial
// (Interrupted) after a deadline.
func (s *Server) checkStep(ctx context.Context, req checkRequest, rec *obs.Record) (report *jmake.Report, tr *jmake.SessionTrace, msg string) {
	s.reg.Counter("requests_total").Inc()
	start := time.Now()
	report, span, err := s.guardedCheck(ctx, req)
	wall := time.Since(start).Seconds()
	s.latency.Observe(wall)
	s.reg.Histogram("request_wall_seconds", latencyBuckets, metrics.L("endpoint", rec.Endpoint)).Observe(wall)
	if span != nil {
		tr = jmake.MergeTraces(span)
	}
	fillTraceFields(rec, tr, report)

	var pe *panicError
	switch {
	case errors.As(err, &pe):
		rec.Outcome, rec.Status, rec.Cause = obs.OutcomePanic, http.StatusInternalServerError, pe.cause
		return nil, tr, "internal error (check panicked; state verified)"
	case err != nil:
		rec.Outcome, rec.Status, rec.Cause = obs.OutcomeError, http.StatusNotFound, err.Error()
		return nil, tr, err.Error()
	case report.Interrupted:
		s.reg.Counter("requests_timed_out").Inc()
		rec.Outcome, rec.Status, rec.Cause = obs.OutcomeTimeout, http.StatusGatewayTimeout, "deadline exceeded mid-check"
		return report, tr, "deadline exceeded; partial report attached"
	}
	rec.Outcome, rec.Status = obs.OutcomeOK, http.StatusOK
	return report, tr, ""
}

func wallMillis(since time.Time) float64 {
	return float64(time.Since(since)) / float64(time.Millisecond)
}

// panicError marks a check that died by panic (already recovered),
// carrying the recovered cause for the flight record and log line.
type panicError struct{ cause string }

func (e *panicError) Error() string { return "daemon: check panicked: " + e.cause }

// guardedCheck is checkOne wrapped in panic isolation: a panic is
// recovered, counted, and followed by the canary tripwire before the
// warm session may serve again.
func (s *Server) guardedCheck(ctx context.Context, req checkRequest) (report *jmake.Report, span *jmake.TraceSpan, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.reg.Counter("daemon_panics").Inc()
			s.cfg.Logger.Error("recovered check panic",
				obs.F("commit", req.Commit), obs.F("panic", fmt.Sprint(rec)))
			s.verifySession()
			report, span, err = nil, nil, &panicError{cause: fmt.Sprint(rec)}
		}
	}()
	if s.cfg.Debug && req.DebugHoldMS > 0 {
		holdUntil(ctx, time.Duration(req.DebugHoldMS)*time.Millisecond)
	}
	if s.cfg.Debug && req.DebugPanic {
		panic("debug_panic requested")
	}
	return s.checkOne(ctx, req.Commit, req.Options)
}

// holdUntil sleeps for d or until ctx is done, in small slices so tests
// with short deadlines are prompt.
func holdUntil(ctx context.Context, d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// verifySession is the poisoned-session tripwire: after a panic, re-run
// the canary commit and byte-compare its report with the startup record.
// Any difference — including a second panic — discards the warm session
// and rebuilds it.
func (s *Server) verifySession() {
	ok := func() (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		report, _, err := s.checkOne(context.Background(), s.canaryID, cliopts.Check{})
		if err != nil {
			return false
		}
		return string(marshalReport(report)) == string(s.canaryJSON)
	}()
	if ok {
		s.reg.Counter("daemon_tripwire_ok").Inc()
		return
	}
	s.reg.Counter("daemon_session_rebuilds").Inc()
	s.cfg.Logger.Warn("canary mismatch after panic; rebuilding session")
	if err := s.rebuildSession(); err != nil {
		// Keep serving on the suspect session rather than dying; /healthz
		// stays true, but the rebuild failure is counted and logged.
		s.reg.Counter("daemon_session_rebuild_failures").Inc()
		s.cfg.Logger.Error("session rebuild failed", obs.F("error", err.Error()))
	}
}

// commitRange names a multi-commit request in its record.
func commitRange(ids []string) string {
	return fmt.Sprintf("%s..%s (%d commits)", ids[0], ids[len(ids)-1], len(ids))
}

// batchRequest checks several commits under one admission slot and one
// deadline, answering an array in request order.
type batchRequest struct {
	Commits    []string      `json:"commits"`
	Options    cliopts.Check `json:"options"`
	DeadlineMS int64         `json:"deadline_ms,omitempty"`

	trace string // sidecar format from ?trace= or X-JMake-Trace
}

func (q *batchRequest) validate(r *http.Request) (string, error) {
	if len(q.Commits) == 0 {
		return "", errors.New("bad request: need commits")
	}
	var err error
	q.trace, err = traceFormatFor(r)
	return commitRange(q.Commits), err
}

func (q *batchRequest) deadline() int64 { return q.DeadlineMS }

type batchEntry struct {
	Commit    string          `json:"commit"`
	RequestID string          `json:"request_id"`
	Report    json.RawMessage `json:"report,omitempty"`
	// Trace carries the per-commit sidecar artifact as a JSON string when
	// the batch asked for one (?trace= / X-JMake-Trace), byte-identical
	// to the one-shot CLI artifact for the same commit.
	Trace string `json:"trace,omitempty"`
	Error string `json:"error,omitempty"`
}

// handleBatch runs each commit through the check step in request order.
// Each entry is a request of its own: it has its own ID and record,
// beside the batch's.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	s.gate(w, r, "batch", &req, func(c *call) {
		out := make([]batchEntry, len(req.Commits))
		for i, id := range req.Commits {
			rec := obs.Record{RequestID: s.nextRequestID(id, "batch"), Endpoint: "batch", Commit: id}
			out[i] = batchEntry{Commit: id, RequestID: rec.RequestID}
			start := time.Now()
			if c.ctx.Err() != nil {
				// Deadline mid-batch: remaining commits are reported as
				// canceled, never silently dropped.
				rec.Outcome, rec.Status = obs.OutcomeCanceled, http.StatusGatewayTimeout
				rec.Cause = "deadline exceeded before this commit was checked"
				out[i].Error = rec.Cause
			} else {
				report, tr, msg := s.checkStep(c.ctx, checkRequest{Commit: id, Options: req.Options}, &rec)
				out[i].Error = msg
				if report != nil {
					out[i].Report = marshalReport(report)
				}
				if msg == "" && req.trace != "" && tr != nil {
					out[i].Trace = string(renderTraceArtifact(tr, req.trace))
				}
			}
			rec.WallMillis = wallMillis(start)
			s.finishRequest(rec)
		}
		c.rec.Outcome, c.rec.Status = obs.OutcomeOK, http.StatusOK
		writeJSON(w, http.StatusOK, out)
	})
}

// followRequest streams incremental checks of an ordered commit list.
// The server keeps one resident follower: when the requested stream
// continues past the previous stream's cursor (same options), the warm
// session is reused and per-commit cost is proportional to the diff;
// otherwise the follower reseeds at the first commit's parent.
type followRequest struct {
	Commits    []string      `json:"commits"`
	Options    cliopts.Check `json:"options"`
	DeadlineMS int64         `json:"deadline_ms,omitempty"`
	// Reseed forces a fresh follower even when the resident one could
	// continue warm.
	Reseed bool `json:"reseed,omitempty"`
}

func (q *followRequest) validate(*http.Request) (string, error) {
	if len(q.Commits) == 0 {
		return "", errors.New("bad request: need commits")
	}
	return commitRange(q.Commits), nil
}

func (q *followRequest) deadline() int64 { return q.DeadlineMS }

// followEntry is one line of the /follow response: compact JSON, one
// entry per commit, flushed as produced. Report carries the same bytes
// as /check for the same commit (modulo the entry's compact rendering).
type followEntry struct {
	Commit           string          `json:"commit"`
	Files            int             `json:"files"`
	Touched          int             `json:"touched"`
	Structural       bool            `json:"structural,omitempty"`
	InvalidatedTUs   int             `json:"invalidated_tus"`
	VirtualSeconds   float64         `json:"virtual_seconds"`
	EffectiveSeconds float64         `json:"effective_seconds"`
	Report           json.RawMessage `json:"report,omitempty"`
	Error            string          `json:"error,omitempty"`
}

// handleFollow streams a commit sequence through the resident follower
// under one admission slot and one deadline, writing one followEntry
// line per commit as each check completes (http.Flusher per line). A
// deadline expiry yields honestly-labeled partial entries for whatever
// was in flight, never a silent truncation; a panic discards the
// follower so the next stream reseeds from scratch.
func (s *Server) handleFollow(w http.ResponseWriter, r *http.Request) {
	var req followRequest
	s.gate(w, r, "follow", &req, func(c *call) {
		s.followMu.Lock()
		defer s.followMu.Unlock()

		f, status, err := s.followerFor(req)
		if err != nil {
			c.fail(status, obs.OutcomeError, err.Error(), err.Error())
			return
		}
		s.followCtx.Store(&c.ctx)
		defer s.followCtx.Store(nil)

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		emitted := 0
		writeEntry := func(e followEntry) {
			enc.Encode(e)
			if flusher != nil {
				flusher.Flush()
			}
			emitted++
		}

		runErr := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					s.reg.Counter("daemon_panics").Inc()
					s.cfg.Logger.Error("recovered follow panic", obs.F("panic", fmt.Sprint(p)))
					err = &panicError{cause: fmt.Sprint(p)}
				}
			}()
			return f.Run(req.Commits, func(st jmake.FollowStep) bool {
				s.reg.Counter("requests_total").Inc()
				writeEntry(s.followEntryFor(st))
				return true
			})
		}()
		// The stream already committed 200; an abort is reported in-band.
		c.rec.Outcome, c.rec.Status = obs.OutcomeOK, http.StatusOK
		if runErr != nil {
			// The follower's tree or session may be mid-sequence; discard it so
			// the next stream reseeds rather than continuing from suspect state.
			s.follower = nil
			s.reg.Counter("daemon_follower_discards").Inc()
			msg := "follow stream aborted: " + runErr.Error()
			for _, id := range req.Commits[min(emitted, len(req.Commits)):] {
				writeEntry(followEntry{Commit: id, Error: msg})
			}
			var pe *panicError
			if errors.As(runErr, &pe) {
				c.rec.Outcome, c.rec.Cause = obs.OutcomePanic, pe.cause
			} else {
				c.rec.Outcome, c.rec.Cause = obs.OutcomeError, runErr.Error()
			}
		}
		s.reg.Histogram("request_wall_seconds", latencyBuckets, metrics.L("endpoint", "follow")).
			Observe(time.Since(c.arrived).Seconds())
	})
}

// followerFor returns the resident follower when it can serve the
// request warm (the stream is in history order after its cursor, same
// checker options), otherwise reseeds one at the first commit's parent.
// A stream no follower would serve from there, such as one out of
// history order, is refused with 400 before anything is built, and the
// resident follower stays. On error it returns the status to answer.
// Caller holds followMu.
func (s *Server) followerFor(req followRequest) (*jmake.Follower, int, error) {
	optsKey, err := json.Marshal(req.Options)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	if s.follower != nil && !req.Reseed && s.followerOpts == string(optsKey) &&
		s.follower.Serves(req.Commits) {
		s.reg.Counter("daemon_follow_continues").Inc()
		return s.follower, 0, nil
	}
	repo := s.built.Hist.Repo
	base, err := repo.Parent(req.Commits[0])
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	if base == "" {
		return nil, http.StatusNotFound, fmt.Errorf("commit %s has no parent to seed a follower from", req.Commits[0])
	}
	if err := jmake.CheckFollowStream(repo, base, req.Commits); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("stream out of history order from %s, the parent of %s: %w", base, req.Commits[0], err)
	}
	opts := req.Options.Options()
	if opts.Interrupt == nil {
		opts.Interrupt = func() bool {
			if p := s.followCtx.Load(); p != nil && *p != nil {
				return (*p).Err() != nil
			}
			return false
		}
	}
	f, err := jmake.NewFollower(repo, base, jmake.FollowOptions{Checker: opts})
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	s.follower, s.followerOpts = f, string(optsKey)
	s.reg.Counter("daemon_follow_seeds").Inc()
	return f, 0, nil
}

// followEntryFor renders one follower step as a stream entry.
func (s *Server) followEntryFor(st jmake.FollowStep) followEntry {
	e := followEntry{
		Commit:           st.Commit,
		Files:            st.Files,
		Touched:          st.Touched,
		Structural:       st.Structural,
		InvalidatedTUs:   st.InvalidatedTUs,
		VirtualSeconds:   st.VirtualSeconds,
		EffectiveSeconds: st.EffectiveSeconds,
	}
	switch {
	case st.Err != nil:
		e.Error = st.Err.Error()
	case st.Report.Interrupted:
		s.reg.Counter("requests_timed_out").Inc()
		e.Error = "deadline exceeded; partial report attached"
		e.Report = marshalReport(st.Report)
	default:
		e.Report = marshalReport(st.Report)
	}
	return e
}

// Shutdown drains the server: no new checks are admitted, the HTTP
// server (if any) stops accepting, and once in-flight work has finished
// (or ctx expires) the persistent cache tier is flushed exactly once.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context, srv *http.Server) error {
	s.draining.Store(true)
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	} else {
		// No HTTP server to wait on (tests drive the handler directly):
		// wait for in-flight checks by filling every semaphore slot.
		err = s.waitIdle(ctx)
	}
	s.flushOnce.Do(func() {
		s.mu.RLock()
		session := s.session
		s.mu.RUnlock()
		if ferr := s.cfg.Cache.Flush(session); ferr != nil {
			s.cfg.Logger.Error("cache flush on drain failed", obs.F("error", ferr.Error()))
			s.reg.Counter("ccache_flush_failures").Inc()
		} else {
			s.reg.Counter("daemon_cache_flushes").Inc()
		}
	})
	return err
}

func (s *Server) waitIdle(ctx context.Context) error {
	for i := 0; i < cap(s.sem); i++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for i := 0; i < cap(s.sem); i++ {
		<-s.sem
	}
	return nil
}

// Metrics exposes the daemon registry (tests).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Flight exposes the flight recorder (tests).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Commits exposes the window IDs (tests and cmd/jmaked logging).
func (s *Server) Commits() []string { return s.built.WindowIDs }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
