package core

import (
	"sync"

	"jmake/internal/metrics"
)

// warmState carries the per-session caches and effective-time ledgers that
// make a long-lived follower session cheap between commits. Every Session
// has one; a one-shot check is simply a fresh session, whose caches start
// empty and whose ledgers nobody reads.
//
// The dependability contract: nothing cached here may ever change a
// report byte. Set-up marks are invalidated by Session.Refresh the moment
// a commit touches the build inputs; the ledgers only measure how much
// *effective* (wall-clock-analogue) time the warmth saved, while reported
// durations keep charging the full cold price.
type warmState struct {
	mu sync.Mutex
	// setupDone marks arch|kind|path builder contexts whose one-time make
	// set-up already ran this session — the analogue of a build directory
	// that survives between commits. Builders for a marked context get
	// WarmSetup and their charged set-up price lands in setupSaved.
	setupDone map[string]bool

	// Ledgers, nanosecond series in the session registry: configSaved
	// (warm_saved_ns{ledger=config}) is charged `make *config` time served
	// from the warm valuation cache, setupSaved
	// (warm_saved_ns{ledger=setup}) is charged per-builder set-up time for
	// (arch, config) contexts whose set-up already ran this session.
	configSaved, setupSaved *metrics.Counter
}

func newWarmState(reg *metrics.Registry) *warmState {
	return &warmState{
		setupDone:   make(map[string]bool),
		configSaved: reg.Counter("warm_saved_ns", metrics.L("ledger", "config")),
		setupSaved:  reg.Counter("warm_saved_ns", metrics.L("ledger", "setup")),
	}
}

// markSetup records that the context's set-up is about to run (or ran) and
// reports whether it had already run this session.
func (w *warmState) markSetup(key string) (was bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	was = w.setupDone[key]
	w.setupDone[key] = true
	return was
}

// Invalidation — called by Session.Refresh with the session lock semantics
// documented there (no concurrent checkers).

func (w *warmState) dropAllSetup() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.setupDone)
	w.setupDone = make(map[string]bool)
	return n
}

// dropSetupArch forgets set-up state for one architecture's contexts
// (keys are arch|kind|path).
func (w *warmState) dropSetupArch(archName string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	prefix := archName + "|"
	n := 0
	for k := range w.setupDone {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(w.setupDone, k)
			n++
		}
	}
	return n
}
