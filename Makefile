GO ?= go

.PHONY: check build test vet race lint lint-go fuzz bench-witness bench-workers bench-static bench-audit bench-checkout bench-setup bench bench-scaling cache-smoke trace-smoke daemon-smoke audit-smoke follow-smoke obs-smoke eval

check: vet build test race lint lint-go fuzz cache-smoke trace-smoke daemon-smoke audit-smoke follow-smoke obs-smoke bench-scaling

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The second line repeats the copy-on-write tree's concurrency test, whose
# goroutines clone, write and query trees that share leaves and file
# versions, while their clones mark the source's leaves shared; the
# third repeats the preprocessor's, whose goroutines expand the same cached
# line tokens and predefined macro bodies.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run TestConcurrentClones ./internal/fstree/
	$(GO) test -race -count=10 -run TestConcurrentPreprocessSharesTokens ./internal/cpp/

# Quick iteration loop: skips the long chaos seed sweeps.
short:
	$(GO) test -short ./...

# Static presence-condition lint over the golden corpus: fails on any
# error (unreadable file, malformed tree), and go vet keeps the linter's
# own source honest.
lint: vet
	$(GO) run ./cmd/jmake-lint -root examples/presence/src >/dev/null
	$(GO) run ./cmd/jmake-lint -root examples/presence/src -dead
	$(GO) run ./cmd/jmake-lint -root examples/presence/src -json >/dev/null

# Go-source lint: go vet always; staticcheck when the host has it (the
# build container does not vendor it and nothing may be installed there).
lint-go:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint-go: staticcheck not installed; ran go vet only"; \
	fi

# Whole-tree audit ground truth: an emitted tree with 10 seeded mismatches
# must audit to exactly those 10 findings (exit code 10, verify-exact), a
# clean emitted tree must audit to zero, and the JSON report must be
# byte-identical across -workers settings.
audit-smoke:
	@GO="$(GO)" sh scripts/audit-smoke.sh

# Short fuzz pass, 10 s per target: malformed #if input must never panic
# the presence analysis, the word-parallel SAT engine must answer every
# formula, witness included, as the one-assignment-at-a-time reference
# does, the preprocessor must take an #if branch exactly when its
# presence formula says so, a malformed makefile must never panic the
# Kbuild walk or make Reachable disagree with FileGate, and
# copy-on-write trees must answer every query like plain maps, with no
# write leaking between a clone and its source through a shared leaf, with
# Containing's trigram prefilter answering exactly as strings.Contains over
# each file and with every version's memoized hash equal to a fresh
# FNV-64a of its content, over trees that split and empty leaves,
# the preprocessor must give the same result with and without its token
# cache (and again through a warm one), the compiler front end must
# never panic, must scan .i text as a plain line split would and must
# find the definitions a forward scan per call finds, the patch parser
# must never panic, never return hunks without both paths and must
# round-trip a Myers diff, a Kconfig root sourcing a second file must
# never panic the parser or the valuations and must link through a shared
# parser, at top level and inside `if X`, exactly as a fresh parse,
# comment stripping must return what the byte-copying reference returns,
# starting inside and outside a block comment, the line analysis must
# return every line the splitting reference returns, and the history
# synthesizer's edit-site scan must answer as the regular expression it
# replaced.
# -fuzzminimizetime 10x caps the minimization of each new input at 10
# executions. The default (60 s) is longer than a target's budget, so on
# a cold fuzz cache a slow target such as FuzzTreeOps spent nearly all of
# its 10 s minimizing the first input it found (7 executions, against 92
# with the cap, on a 2-vCPU host). A crasher is still written to
# testdata/fuzz, only less minimized.
fuzz:
	$(GO) test ./internal/presence/ -run '^$$' -fuzz FuzzPresenceParse -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/presence/ -run '^$$' -fuzz FuzzDecide -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/presence/ -run '^$$' -fuzz FuzzStaticDynamicAgree -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/kbuild/ -run '^$$' -fuzz FuzzParseMakefile -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/fstree/ -run '^$$' -fuzz FuzzTreeOps -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/cpp/ -run '^$$' -fuzz FuzzPreprocess -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/cc/ -run '^$$' -fuzz FuzzCompile -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/textdiff/ -run '^$$' -fuzz FuzzParsePatch -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/kconfig/ -run '^$$' -fuzz FuzzKconfigParse -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/csrc/ -run '^$$' -fuzz FuzzStripComments -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/csrc/ -run '^$$' -fuzz FuzzAnalyze -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/commitgen/ -run '^$$' -fuzz FuzzEditableStmt -fuzztime 10s -fuzzminimizetime 10x

bench-witness:
	$(GO) test ./internal/core/ -run '^$$' -bench BenchmarkWitnessedIn -benchmem

# One whole-tree audit in process (a generated tree at scale 0.25 with 8
# injected mismatches, one worker), comparable across checkouts without
# perfbench. GOMAXPROCS 1 puts the collector's work on the timed thread,
# so ns/op counts the CPU time perfbench's cpu_ms_per_op counts; five
# runs show the spread.
bench-audit:
	$(GO) test ./internal/audit/ -run '^$$' -bench BenchmarkAuditRun -benchmem -cpu 1 -count 5

# Snapshot cost in process: every window commit of a generated workspace
# (tree scale 1.0, commit scale 0.3) checked out, cloned once and searched
# by one header hunt, comparable across checkouts without perfbench.
# GOMAXPROCS 1 as in bench-audit; five runs show the spread.
bench-checkout:
	$(GO) test ./internal/vcs/ -run '^$$' -bench BenchmarkCheckoutWindow -benchmem -cpu 1 -count 5

# Workspace synthesis in process: the generated tree (scale 1.0), its
# history (commit scale 0.3) and the patch window, the set-up every jmake,
# jmake-eval and jmaked start pays before its first check, comparable
# across checkouts without perfbench. GOMAXPROCS 1 as in bench-audit;
# five runs show the spread.
bench-setup:
	$(GO) test ./internal/cliopts/ -run '^$$' -bench BenchmarkWorkspaceBuild -benchmem -cpu 1 -count 5

# Patch-window throughput at 1/2/4/8 workers (speedup tracks CPU cores).
bench-workers:
	$(GO) test ./internal/eval/ -run '^$$' -bench BenchmarkCheckWindow -benchtime 3x

# Virtual build time with and without static presence-condition pruning.
bench-static:
	$(GO) test ./internal/eval/ -run '^$$' -bench BenchmarkStaticPruning -benchtime 3x

# Pipeline benchmark: worker sweep, cold-vs-warm result-cache passes, and
# the reactive follower replay (per-commit virtual vs effective cost).
# Writes BENCH_pipeline.json (the EXPERIMENTS.md §cache numbers come from it).
bench:
	$(GO) run ./cmd/jmake-bench -reactive -reactive-commits 60 -o BENCH_pipeline.json

# Worker-scaling smoke gate: a fast corpus through the window at 1 and 4
# workers; fails if the 4-worker pass is not >= 1.5x the 1-worker
# throughput (a regression to the old convoy-on-global-mutexes pathology).
# Hosts with < 4 CPUs skip — wall-clock speedup needs real cores.
bench-scaling:
	$(GO) run ./cmd/jmake-bench -scaling-check -tree-scale 0.25 -commit-scale 0.01 -min-speedup 1.5

# Result-cache round trip: two evaluations against the same -cache-dir
# (cold, then warm from the persisted tier) must emit byte-identical JSON.
cache-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/jmake-eval -json -tree-scale 0.15 -commit-scale 0.008 -cache-dir "$$dir/cache" -workers 2 >"$$dir/cold.json" 2>/dev/null && \
	$(GO) run ./cmd/jmake-eval -json -tree-scale 0.15 -commit-scale 0.008 -cache-dir "$$dir/cache" -workers 4 >"$$dir/warm.json" 2>/dev/null && \
	cmp "$$dir/cold.json" "$$dir/warm.json" && echo "cache-smoke: cold and warm JSON byte-identical"

# Trace determinism: the Chrome trace export must be structurally valid
# (balanced B/E pairs, monotone per-track timestamps, valid pid/tid — see
# cmd/trace-check) and byte-identical across worker counts, because span
# times come from the virtual clock, never the host scheduler. The faulted
# pass (arch breaks, transient failures, truncations, stalls) must also be
# byte-identical with the result cache off: every cache-probe mark carries
# the key the make's own probe computed, cache or no cache.
trace-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/jmake-eval -tree-scale 0.15 -commit-scale 0.008 -workers 1 -trace-out "$$dir/w1.json" summary >/dev/null && \
	$(GO) run ./cmd/jmake-eval -tree-scale 0.15 -commit-scale 0.008 -workers 4 -trace-out "$$dir/w4.json" summary >/dev/null && \
	$(GO) run ./cmd/trace-check "$$dir/w1.json" "$$dir/w4.json" && \
	cmp "$$dir/w1.json" "$$dir/w4.json" && echo "trace-smoke: traces valid and byte-identical across workers" && \
	$(GO) run ./cmd/jmake-eval -tree-scale 0.15 -commit-scale 0.008 -fault-rate 0.3 -workers 1 -trace-out "$$dir/f1.json" summary >/dev/null && \
	$(GO) run ./cmd/jmake-eval -tree-scale 0.15 -commit-scale 0.008 -fault-rate 0.3 -workers 4 -trace-out "$$dir/f4.json" summary >/dev/null && \
	$(GO) run ./cmd/jmake-eval -tree-scale 0.15 -commit-scale 0.008 -fault-rate 0.3 -no-result-cache -trace-out "$$dir/fnc.json" summary >/dev/null && \
	$(GO) run ./cmd/trace-check "$$dir/f1.json" "$$dir/f4.json" "$$dir/fnc.json" && \
	cmp "$$dir/f1.json" "$$dir/f4.json" && cmp "$$dir/f1.json" "$$dir/fnc.json" && \
	echo "trace-smoke: faulted traces valid and byte-identical across workers and cache states"

# Incremental-follower round trip: stream 20 commits warm at workers 1
# and 4, cmp every report with the other worker count's and with
# `jmake -commit ID -json` for the same commit (warmth and concurrency may
# change cost, never bytes), and gate steady-state small commits at
# <= 30% of their cold price.
follow-smoke:
	@GO="$(GO)" sh scripts/follow-smoke.sh

# Service round trip: start jmaked, replay 200 requests at concurrency 32
# (plus a -chaos burst), byte-compare a daemon report against the batch
# CLI's, and require a clean SIGTERM drain with a flushed cache tier.
daemon-smoke:
	@GO="$(GO)" sh scripts/daemon-smoke.sh

# Observability round trip: chaos burst against a tight-queue jmaked,
# then require a valid Prometheus exposition (trace-check -prom), shed
# records in the flight recorder, a span tree from /tracez for a
# successful request, the structured NDJSON request log, and a clean
# drain.
obs-smoke:
	@GO="$(GO)" sh scripts/obs-smoke.sh

eval:
	$(GO) run ./cmd/jmake-eval summary
