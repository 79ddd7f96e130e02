package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"jmake/internal/faultinject"
	"jmake/internal/fstree"
	"jmake/internal/textdiff"
	"jmake/internal/vclock"
)

// chaosBudget caps each chaos run. Ops are charged whole, so a run may
// overshoot by the last uninterruptible operation; for this fixture no
// single operation (setup + preprocess + compile + stall + backoff
// chain) exceeds chaosSlack.
const (
	chaosBudget = 90 * time.Second
	chaosSlack  = 40 * time.Second
)

// chaosEdits builds a fixture tree and a multi-file patch (two .c files,
// one header) exercising the .c pipeline, header coverage via patch .c
// files, and the cross-arch path.
func chaosEdits(t *testing.T) (*fstree.Tree, []textdiff.FileDiff) {
	t.Helper()
	tr := fixtureTree()
	var fds []textdiff.FileDiff
	oldC, _ := tr.Read("drivers/net/netdrv.c")
	fds = append(fds, applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(oldC, "0x40", "0x44", 1)))
	oldA, _ := tr.Read("drivers/net/armdrv.c")
	fds = append(fds, applyEdit(t, tr, "drivers/net/armdrv.c",
		strings.Replace(oldA, "\treturn 0;", "\treturn 1;", 1)))
	oldH, _ := tr.Read("include/linux/netdev.h")
	fds = append(fds, applyEdit(t, tr, "include/linux/netdev.h",
		strings.Replace(oldH, "<< 4)", "<< 5)", 1)))
	return tr, fds
}

func chaosRun(t *testing.T, tr *fstree.Tree, fds []textdiff.FileDiff, opts Options) *PatchReport {
	t.Helper()
	ch, err := NewChecker(tr, vclock.DefaultModel(1), opts)
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	report, err := ch.CheckPatch("chaos", fds)
	if err != nil {
		t.Fatalf("CheckPatch: %v", err)
	}
	return report
}

// assertSafety checks the invariants no fault plan may violate.
func assertSafety(t *testing.T, seed uint64, r *PatchReport) {
	t.Helper()
	for _, f := range r.Files {
		if f.Status == StatusCertified {
			if f.FoundMutations != f.Mutations {
				t.Errorf("seed %d: %s certified with %d/%d mutations found",
					seed, f.Path, f.FoundMutations, f.Mutations)
			}
			if len(f.EscapedLines) != 0 {
				t.Errorf("seed %d: %s certified with escaped lines %v",
					seed, f.Path, f.EscapedLines)
			}
		}
	}
	if r.Total > chaosBudget+chaosSlack {
		t.Errorf("seed %d: Total %v exceeds budget %v + slack %v",
			seed, r.Total, chaosBudget, chaosSlack)
	}
	if !r.BudgetExhausted {
		for _, f := range r.Files {
			if f.Status == StatusBudgetExhausted {
				t.Errorf("seed %d: %s budget-exhausted on a non-exhausted run", seed, f.Path)
			}
		}
	}
}

// TestChaosSweep sweeps fault-plan seeds and asserts that no fault plan
// can ever cause a false certification, that every run terminates within
// the virtual-time budget, and that identical seeds yield identical
// reports.
func TestChaosSweep(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	sawFault, sawRetry := false, false
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		opts := Options{
			Faults: faultinject.Uniform(seed, 0.25),
			Budget: chaosBudget,
		}
		tr, fds := chaosEdits(t)
		r1 := chaosRun(t, tr, fds, opts)
		assertSafety(t, seed, r1)
		if len(r1.FaultEvents) > 0 {
			sawFault = true
		}
		if r1.Retries > 0 {
			sawRetry = true
		}

		r2 := chaosRun(t, tr, fds, opts)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("seed %d: identical seeds produced different reports:\n%+v\nvs\n%+v", seed, r1, r2)
		}
	}
	if !sawFault {
		t.Error("no seed injected any fault; the sweep is vacuous")
	}
	if !sawRetry {
		t.Error("no seed triggered a retry; the sweep is vacuous")
	}
}

// TestChaosHighRate pushes the rates up so every resilience path (retry
// exhaustion, quarantine, truncation) is exercised; safety must hold.
func TestChaosHighRate(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		opts := Options{
			Faults: faultinject.Uniform(seed, 0.7),
			Budget: chaosBudget,
		}
		tr, fds := chaosEdits(t)
		assertSafety(t, seed, chaosRun(t, tr, fds, opts))
	}
}

// TestZeroPlanMatchesSeedBehavior: with no fault plan the resilience
// layer must be a strict no-op — statuses, durations, and totals are
// byte-identical to a run with plain zero Options.
func TestZeroPlanMatchesSeedBehavior(t *testing.T) {
	tr, fds := chaosEdits(t)
	base := chaosRun(t, tr, fds, Options{})
	resil := chaosRun(t, tr, fds, Options{
		MaxRetries:           5,
		ArchFailureThreshold: 2,
		// No Faults plan, no Budget: nothing may change.
	})
	if !reflect.DeepEqual(base, resil) {
		t.Fatalf("zero fault plan changed the report:\nbase  %+v\nresil %+v", base, resil)
	}
	if base.Retries != 0 || len(base.FaultEvents) != 0 || base.BudgetExhausted ||
		len(base.QuarantinedArches) != 0 || len(base.BackoffDurations) != 0 {
		t.Errorf("fault-free run has resilience residue: %+v", base)
	}
	if !base.Certified() {
		t.Errorf("fixture patch should certify cleanly: %+v", base.Files)
	}
}

// TestChaosStatusesReachable: across the sweep, the two new terminal
// statuses must actually occur — budget exhaustion under a tiny budget,
// quarantine under a breaker-heavy plan.
func TestChaosStatusesReachable(t *testing.T) {
	tr, fds := chaosEdits(t)
	r := chaosRun(t, tr, fds, Options{Budget: time.Millisecond})
	if !r.BudgetExhausted {
		t.Fatal("1ms budget not marked exhausted")
	}
	found := false
	for _, f := range r.Files {
		if f.Status == StatusBudgetExhausted {
			found = true
		}
		if f.Status == StatusCertified {
			t.Errorf("%s certified under a 1ms budget", f.Path)
		}
	}
	if !found {
		t.Errorf("no file finalized budget-exhausted: %+v", r.Files)
	}

	seen := false
	for seed := uint64(1); seed <= 30 && !seen; seed++ {
		opts := Options{
			Faults:               faultinject.Plan{Seed: seed, ArchBreakRate: 1},
			Budget:               chaosBudget,
			ArchFailureThreshold: 1,
		}
		tr, fds := chaosEdits(t)
		r := chaosRun(t, tr, fds, opts)
		assertSafety(t, seed, r)
		for _, f := range r.Files {
			if f.Status == StatusArchQuarantined {
				seen = true
			}
		}
		if seen && len(r.QuarantinedArches) == 0 {
			t.Errorf("seed %d: quarantined status without QuarantinedArches", seed)
		}
	}
	if !seen {
		t.Error("no seed in 1..30 produced StatusArchQuarantined under ArchBreakRate=1")
	}
}
