package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"jmake"
	"jmake/internal/daemon"
	"jmake/internal/obs"
	"jmake/internal/trace"
	"jmake/internal/vcs"
)

// service runs an in-process jmaked and sends it /check requests.
// Commits are drawn by a seeded Zipf over the window, and the timed
// requests all repeat a commit the daemon has checked, so compile work is
// served from the result cache and fixed per-request costs (reachability,
// clones, JSON, checkout, tracing) are what is timed. Timed requests go
// straight to the daemon's HTTP handler on the timing goroutine, so each
// runs on one thread whose CPU time is the request's; the traced run
// sends the same requests over loopback, open-loop at a fixed rate, for
// the transport, queueing and generator figures.
type serviceWL struct {
	srv    *daemon.Server
	h      http.Handler
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	ids    []string
}

func startService(e *env) (*serviceWL, error) {
	srv, err := daemon.New(daemon.Config{
		MaxInFlight: e.p.workers,
		Workspace:   e.p.workspace(e.seed),
		Logger:      obs.New(io.Discard, obs.Info),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	w := &serviceWL{
		srv:    srv,
		h:      h,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     e.p.workers,
			MaxIdleConnsPerHost: e.p.workers,
			DisableCompression:  true,
		}},
		ids: srv.Commits(),
	}
	go func() { w.served <- w.hs.Serve(ln) }()
	return w, nil
}

// stop drains the daemon and waits for its HTTP server to return.
func (w *serviceWL) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx, w.hs)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.client.CloseIdleConnections()
	return err
}

// answer is one /check response.
type answer struct {
	status int
	body   []byte
	rid    string
	dur    time.Duration // send to last byte (loopback) or the handler call
	cpu    time.Duration // the serving thread's CPU time (handler calls)
	err    error
	opID   int         // the client span (traced runs)
	vspan  *trace.Span // the request's span tree from the flight recorder (traced runs)
}

func (w *serviceWL) check(id string, keepSpan bool) answer {
	start := time.Now()
	var a answer
	resp, err := w.client.Post(w.url+"/check", "application/json", strings.NewReader(`{"commit":"`+id+`"}`))
	if err != nil {
		a.err = err
		return a
	}
	a.body, a.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	a.dur = time.Since(start)
	a.status = resp.StatusCode
	a.rid = resp.Header.Get("X-JMake-Request-Id")
	if keepSpan {
		a.vspan = w.flightSpan(a.rid)
	}
	return a
}

// serve hands one /check request to the daemon's handler on the calling
// goroutine and times it on its thread.
func (w *serviceWL) serve(id string, keepSpan bool) answer {
	var a answer
	a.dur, a.cpu = onCPU(func() {
		req := httptest.NewRequest(http.MethodPost, "/check", strings.NewReader(`{"commit":"`+id+`"}`))
		rec := httptest.NewRecorder()
		w.h.ServeHTTP(rec, req)
		a.status, a.body = rec.Code, rec.Body.Bytes()
		a.rid = rec.Header().Get("X-JMake-Request-Id")
	})
	if keepSpan {
		a.vspan = w.flightSpan(a.rid)
	}
	return a
}

// flightSpan is the span tree the flight recorder kept for a request.
func (w *serviceWL) flightSpan(rid string) *trace.Span {
	if rec, ok := w.srv.Flight().Find(rid); ok && rec.Trace != nil && len(rec.Trace.Spans) > 0 {
		return rec.Trace.Spans[0]
	}
	return nil
}

// phase sends the drawn commits open-loop at rate and returns arrivals
// and answers in draw order. A non-200 answer is a failed request.
func (w *serviceWL) phase(e *env, draws []int, rate float64, keepSpans bool, log *spanLog) ([]arrival, []answer) {
	ans := make([]answer, len(draws))
	arr := openLoop(len(draws), rate, e.p.workers, func(i int) bool {
		id := w.ids[draws[i]]
		opID := log.timed("service.request", i, 0, func() { ans[i] = w.check(id, keepSpans) })
		ans[i].opID = opID
		return ans[i].err == nil && ans[i].status == http.StatusOK
	})
	return arr, ans
}

// closed serves the drawn commits one after another and returns the
// answers in draw order with the pass's timings.
func (w *serviceWL) closed(draws []int, keepSpans bool) ([]answer, passRecord) {
	ans := make([]answer, len(draws))
	c0, start := processCPU(), time.Now()
	for i, d := range draws {
		ans[i] = w.serve(w.ids[d], keepSpans)
	}
	rec := passRecord{wall: time.Since(start), cpu: processCPU() - c0}
	for _, a := range ans {
		rec.add(a.dur, a.cpu)
	}
	return ans, rec
}

// warm sends the draws closed-loop and fails on the first request that
// does not succeed.
func (w *serviceWL) warm(draws []int, keepSpans bool) ([]answer, error) {
	ans, _ := w.closed(draws, keepSpans)
	for i, a := range ans {
		if a.err != nil || a.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %s: status %d: %v", w.ids[draws[i]], a.status, a.err)
		}
	}
	return ans, nil
}

func latenciesMS(arr []arrival) (lat, late []float64) {
	for _, a := range arr {
		lat = append(lat, float64(a.Latency())/float64(time.Millisecond))
		late = append(late, float64(a.Late())/float64(time.Millisecond))
	}
	return lat, late
}

// judgeAnswers checks every answer: status, then the verdict rule on the
// parsed report. It returns the parsed reports (nil where none).
func judgeAnswers(o *outcome, w *serviceWL, draws []int, ans []answer) []*jmake.Report {
	reps := make([]*jmake.Report, len(ans))
	for i, a := range ans {
		id := w.ids[draws[i]]
		if a.err != nil || a.status != http.StatusOK {
			o.fail("%s: status %d: %v", id, a.status, a.err)
			continue
		}
		var r jmake.Report
		if err := json.Unmarshal(a.body, &r); err != nil {
			o.fail("%s: unreadable report: %v", id, err)
			continue
		}
		reps[i] = &r
		judge(o, id, &r, nil)
	}
	return reps
}

func reportCounts(reps []*jmake.Report) map[string]int64 {
	c := map[string]int64{}
	for _, r := range reps {
		if r != nil {
			c["make_i_calls"] += int64(len(r.MakeIDurations))
			c["make_o_calls"] += int64(len(r.MakeODurations))
		}
	}
	return c
}

func runService(e *env) (*outcome, error) {
	o := newOutcome()
	if e.traced {
		return o, serviceTraced(e, o)
	}
	var w *serviceWL
	var times []float64
	for i := 0; i < e.p.setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		s, err := startService(e)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if w != nil {
			if err := w.stop(); err != nil {
				return nil, err
			}
		}
		w = s
	}
	o.metrics["setup_s"] = median(times)
	defer w.stop()

	// One seeded Zipf sequence, sent once to warm the daemon, then timed
	// in passes until the budget is spent: every pass repeats the same
	// requests against the same cache state.
	stream := newZipfStream(e.seed, len(w.ids))
	draws := stream.take(e.p.requests)
	o.props["sequence_repeat_share"] = stream.repeatShare()
	o.props["distinct_commits"] = distinct(draws)
	o.props["timed_repeat_share"] = 1.0
	if _, err := w.warm(draws, false); err != nil {
		return nil, err
	}
	runtime.GC()
	heap := startHeapSampler(5 * time.Millisecond)
	var first []answer
	var busy time.Duration
	var passes []passRecord
	for busy < e.budget() || len(passes) < minPasses {
		runtime.GC() // every pass starts from the same heap
		ans, rec := w.closed(draws, false)
		busy += rec.wall
		passes = append(passes, rec)
		o.attempted += len(ans)
		if first == nil {
			first = ans
			continue
		}
		// The same request must get the same answer in every pass.
		for i, a := range ans {
			switch id := w.ids[draws[i]]; {
			case a.err != nil || a.status != http.StatusOK:
				o.fail("%s: status %d: %v", id, a.status, a.err)
			case !bytes.Equal(a.body, first[i].body):
				o.fail("%s: answer differs between passes", id)
			}
		}
	}
	o.metrics["peak_heap_mb"] = heap.stopMB()
	passFigures(o, passes)
	reps := judgeAnswers(o, w, draws, first)
	o.counts = reportCounts(reps)
	o.counts["distinct_commits"] = int64(distinct(draws))

	// Outside the timed section: a seeded sample of answers against fresh
	// from-scratch checks of a regenerated (deterministic) workspace.
	b, err := e.p.workspace(e.seed).Build()
	if err != nil {
		return nil, err
	}
	o.props["files_per_tree"] = b.Tree.Len()
	compareSample(o, e, b.Hist.Repo, w, draws, first)
	return o, nil
}

// distinct counts the different commits among the draws.
func distinct(draws []int) int {
	seen := map[int]bool{}
	for _, d := range draws {
		seen[d] = true
	}
	return len(seen)
}

func (w *serviceWL) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// compareSample byte-compares a seeded sample of the answers.
func compareSample(o *outcome, e *env, repo *vcs.Repo, w *serviceWL, draws []int, ans []answer) {
	var ok []int
	for i, a := range ans {
		if a.status == http.StatusOK {
			ok = append(ok, i)
		}
	}
	picked := sampleIndices(e.seed, len(ok), e.p.sampleChecks)
	compareAll(o, e, len(picked), func(k int) string {
		i := ok[picked[k]]
		id := w.ids[draws[i]]
		return compareFresh(repo, id, commitModel(id), ans[i].body)
	})
	o.notes["byte_compared"] = min(len(ok), e.p.sampleChecks)
}

// metricsz is the parts of jmaked's /metricsz JSON the benchmark reads.
type metricsz struct {
	Daemon  []struct{ Name, Value string } `json:"daemon"`
	Session []struct{ Name, Value string } `json:"session"`
}

func (w *serviceWL) scrape() (map[string]float64, error) {
	body, err := w.get("/metricsz")
	if err != nil {
		return nil, err
	}
	var m metricsz
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("reading /metricsz: %w", err)
	}
	out := map[string]float64{}
	for _, s := range append(m.Daemon, m.Session...) {
		if strings.HasPrefix(s.Value, "count=") {
			// Histograms render as "count=N sum=S".
			var n, sum float64
			if _, err := fmt.Sscanf(s.Value, "count=%g sum=%g", &n, &sum); err == nil {
				out[s.Name+":count"], out[s.Name+":sum"] = n, sum
			}
			continue
		}
		if v, err := strconv.ParseFloat(s.Value, 64); err == nil {
			out[s.Name] = v
		}
	}
	return out, nil
}

// serviceTraced warms a daemon with the request sequence and sends it
// again open-loop at the nominal rate, untraced; then does the same on a
// fresh daemon with client spans, the flight recorder's span trees and
// /metricsz deltas; then replays each request's recorded calls.
func serviceTraced(e *env, o *outcome) error {
	wA, err := startService(e)
	if err != nil {
		return err
	}
	stream := newZipfStream(e.seed, len(wA.ids))
	draws := stream.take(e.p.requests)
	o.props["sequence_repeat_share"] = stream.repeatShare()
	if _, err := wA.warm(draws, false); err != nil {
		return err
	}
	runtime.GC()
	_, ansA := wA.phase(e, draws, e.p.nominalQPS, false, nil)
	countsA := reportCounts(judgeAnswers(o, wA, draws, ansA))
	if err := wA.stop(); err != nil {
		return err
	}

	w, err := startService(e)
	if err != nil {
		return err
	}
	defer w.stop()
	warmAns, err := w.warm(draws, true)
	if err != nil {
		return err
	}
	runtime.GC()
	before, err := w.scrape()
	if err != nil {
		return err
	}
	var arr []arrival
	var ans []answer
	rtBefore := snapRuntime()
	shares, samples, err := profiled(func() { arr, ans = w.phase(e, draws, e.p.nominalQPS, true, e.log) })
	if err != nil {
		return err
	}
	runtime.GC()
	rtAfter := snapRuntime()
	after, err := w.scrape()
	if err != nil {
		return err
	}
	setProfileShares(o, shares, samples)
	o.attempted = len(draws)
	o.metrics["runtime.gc_cpu_share"], o.metrics["runtime.cpu_ms_per_op"], o.metrics["runtime.alloc_mb_per_op"] =
		runtimeLayer(rtBefore, rtAfter, len(draws))
	reps := judgeAnswers(o, w, draws, ans)
	o.counts = reportCounts(reps)
	sameWork(o, countsA, o.counts)

	var durA, durB float64
	spans := 0
	for i := range ans {
		durA += float64(ansA[i].dur)
		durB += float64(ans[i].dur)
		ans[i].vspan.Walk(func(*trace.Span) { spans++ })
	}
	o.metrics["trace.spans_per_patch"] = ratio(float64(spans), float64(len(ans)))
	o.metrics["trace.overhead_share"] = ratio(durB, durA) - 1
	_, late := latenciesMS(arr)
	o.metrics["loadgen.late_p99_ms"] = percentile(late, 0.99).Value
	o.notes["open_loop_qps"] = e.p.nominalQPS
	o.notes["backlog_growth_ms"] = float64(backlogGrowth(arr)) / float64(time.Millisecond)

	// Server-side layers from /metricsz deltas.
	delta := func(k string) float64 { return after[k] - before[k] }
	serverMS := 1000 * ratio(delta("request_wall_seconds{endpoint=check}:sum"), delta("request_wall_seconds{endpoint=check}:count"))
	queueMS := 1000 * ratio(delta("queue_wait_seconds:sum"), delta("queue_wait_seconds:count"))
	clientMS := durB / float64(len(ans)) / float64(time.Millisecond)
	o.metrics["daemon.server_ms"] = serverMS
	o.metrics["daemon.queue_wait_ms"] = queueMS
	o.metrics["daemon.transport_ms"] = clientMS - serverMS - queueMS
	o.metrics["daemon.shed"] = delta("requests_outcome_total{endpoint=check}{outcome=shed}")
	o.metrics["daemon.timeouts"] = delta("requests_outcome_total{endpoint=check}{outcome=timeout}")
	hitRatio := func(hits, misses string) float64 {
		h, m := delta(hits), delta(misses)
		return ratio(h, h+m)
	}
	o.metrics["ccache.i_hit_ratio"] = hitRatio("result_cache_hits{stage=make_i}", "result_cache_misses{stage=make_i}")
	o.metrics["ccache.o_hit_ratio"] = hitRatio("result_cache_hits{stage=make_o}", "result_cache_misses{stage=make_o}")
	o.metrics["ccache.stored_mb"] = (delta("result_cache_bytes_stored{stage=make_i}") + delta("result_cache_bytes_stored{stage=make_o}")) / (1 << 20)
	o.metrics["ccache.served_mb"] = (delta("result_cache_bytes_served{stage=make_i}") + delta("result_cache_bytes_served{stage=make_o}")) / (1 << 20)
	o.metrics["kconfig.config_hit_ratio"] = hitRatio("config_cache_hits", "config_cache_misses")
	o.metrics["cpp.token_hit_ratio"] = hitRatio("token_cache_hits", "token_cache_misses")
	reportLayers(o, reps)

	// Replays, on a regenerated (deterministic) copy of the workspace.
	b, err := e.p.workspace(e.seed).Build()
	if err != nil {
		return err
	}
	repo := b.Hist.Repo
	base, err := repo.CheckoutTree(w.ids[0])
	if err != nil {
		return err
	}
	rp, err := newReplayer(base, nil)
	if err != nil {
		return err
	}
	// Warm the replay caches with the warm-up requests, untimed, so the
	// timed replays meet the cache state the daemon had.
	warmBy := time.Now().Add(e.budget() / 4)
	for i, a := range warmAns {
		if time.Now().After(warmBy) {
			break
		}
		tree, err := repo.CheckoutTree(w.ids[draws[i]])
		if err != nil {
			return err
		}
		rp.span(0, 0, tree, a.vspan)
	}
	rp.log = e.log
	deadline := time.Now().Add(e.budget() / 4)
	replayed, files := 0, 0
	for i, a := range ans {
		if time.Now().After(deadline) {
			break
		}
		if a.vspan == nil || reps[i] == nil {
			continue
		}
		id := w.ids[draws[i]]
		var tree = base
		e.log.replay("vcs.checkout", i, a.opID, func() { tree, err = repo.CheckoutTree(id) })
		if err != nil {
			return err
		}
		e.log.replay("vcs.diff", i, a.opID, func() { _, err = repo.FileDiffs(id) })
		if err != nil {
			return err
		}
		files += tree.Len()
		rp.clone(i, a.opID, tree)
		rp.span(i, a.opID, tree, a.vspan)
		e.log.replay("daemon.marshal", i, a.opID, func() { reportBytes(reps[i]) })
		cp := unstamped(a.vspan)
		e.log.replay("trace.merge", i, a.opID, func() { jmake.MergeTraces(cp) })
		replayed++
	}
	layerMetrics(e, o, rp)
	st := e.log.stats()
	o.metrics["daemon.marshal_ms"] = st["daemon.marshal"].meanMS()
	o.metrics["trace.merge_ms"] = st["trace.merge"].meanMS()
	o.metrics["vcs.calls"] = 2 // every /check checks out the commit and diffs it
	// CheckPatch runs inside the daemon: its time is the server's request
	// time less the checkout and diff it also spends, and its self time
	// that less the replayed calls inside it.
	check := serverMS - o.metrics["vcs.checkout_ms"] - o.metrics["vcs.diff_ms"]
	var inner time.Duration
	for _, name := range []string{"fstree.clone", "kbuild.reachable", "cpp.preprocess", "cc.compile", "ccache.probe"} {
		inner += st[name].Total
	}
	o.metrics["core.check_ms"] = check
	o.metrics["core.self_ms"] = check - ratio(float64(inner)/float64(time.Millisecond), float64(replayed))
	o.metrics["fstree.files"] = ratio(float64(files), float64(replayed))
	o.notes["replayed_requests"] = replayed
	o.notes["replay_cache_state"] = "replay caches warmed with the warm-up requests' span trees (untimed, as far as the budget allows), then warm in request order"
	zeroLayers(o)
	return nil
}

// reportLayers derives the per-report layer counts from the checked
// reports (nil entries are operations that produced none).
func reportLayers(o *outcome, reps []*jmake.Report) {
	checked, files, muts, certified, mi, mo := 0, 0, 0, 0, 0, 0
	for _, r := range reps {
		if r == nil {
			continue
		}
		checked++
		files += len(r.Files)
		for _, f := range r.Files {
			muts += f.Mutations
		}
		if r.Certified() {
			certified++
		}
		mi += len(r.MakeIDurations)
		mo += len(r.MakeODurations)
	}
	n := float64(checked)
	o.metrics["core.files_per_patch"] = ratio(float64(files), n)
	o.metrics["core.mutations_per_patch"] = ratio(float64(muts), n)
	o.metrics["core.certified_share"] = ratio(float64(certified), n)
	o.metrics["kbuild.make_i_calls"] = ratio(float64(mi), n)
	o.metrics["kbuild.make_o_calls"] = ratio(float64(mo), n)
}

// unstamped deep-copies a span tree without its cache-outcome stamps, so
// a replayed MergeTraces does the stamping work the daemon did.
func unstamped(s *trace.Span) *trace.Span {
	c := &trace.Span{Kind: s.Kind, Start: s.Start, End: s.End, Key: s.Key}
	for _, a := range s.Attrs {
		if a.Key != "cache" {
			c.Attrs = append(c.Attrs, a)
		}
	}
	for _, ch := range s.Children {
		c.Children = append(c.Children, unstamped(ch))
	}
	return c
}
