// Package janitor implements the paper's §IV methodology for identifying
// kernel janitors: developers who work breadth-first across many
// subsystems and mailing lists, with little maintainer activity, doing
// about the same small amount of work on each file. Candidates passing the
// Table I thresholds are ranked by the coefficient of variation of their
// per-file patch counts, ascending — an even spread ranks first.
package janitor

import (
	"fmt"
	"sort"

	"jmake/internal/maintainers"
	"jmake/internal/sched"
	"jmake/internal/stats"
	"jmake/internal/vcs"
)

// Thresholds are the Table I criteria.
type Thresholds struct {
	// MinPatches over the whole study period (Table I: >= 10).
	MinPatches int
	// MinSubsystems distinct MAINTAINERS entries touched (>= 20).
	MinSubsystems int
	// MinLists distinct designated mailing lists (>= 3).
	MinLists int
	// MaxMaintainerFrac of patches where the author maintains a touched
	// file (< 5%).
	MaxMaintainerFrac float64
	// MinWindowPatches in the evaluation window, so enough janitor patches
	// exist to study (paper: >= 20 between v4.3 and v4.4).
	MinWindowPatches int
	// TopN developers returned after ranking (paper: 10).
	TopN int
}

// DefaultThresholds returns Table I plus the paper's window constraint.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MinPatches:        10,
		MinSubsystems:     20,
		MinLists:          3,
		MaxMaintainerFrac: 0.05,
		MinWindowPatches:  20,
		TopN:              10,
	}
}

// AuthorStats aggregates one developer's activity (Table II row).
type AuthorStats struct {
	Name  string
	Email string
	// Patches is the total over the study period (history + window).
	Patches int
	// Subsystems and Lists are distinct counts via MAINTAINERS.
	Subsystems int
	Lists      int
	// MaintainerFrac is the fraction of patches touching files the author
	// maintains.
	MaintainerFrac float64
	// FileCV is the coefficient of variation of per-file patch counts.
	FileCV float64
	// WindowPatches counts patches inside the evaluation window.
	WindowPatches int
}

type accum struct {
	name           string
	patches        int
	windowPatches  int
	maintainerHits int
	subsystems     map[string]bool
	lists          map[string]bool
	fileCounts     map[string]int
}

// commitTally is the per-commit work computed in parallel: everything the
// serial fold needs to add one commit to its author's accumulator. The
// commit lookup and the MAINTAINERS index queries dominate the study's
// cost and are pure reads, so they parallelize; the fold itself stays
// serial in submission order, making the study worker-count-invariant.
type commitTally struct {
	email, name string
	inWindow    bool
	paths       []string // one entry per change, duplicates intact
	subsystems  []string
	lists       []string
	maintains   bool
	err         error
}

// IdentifyWorkers runs the study over fromTag..toTag with the window
// starting at midTag, and returns the ranked janitors. The per-commit
// tallying fans over workers; the result is identical at any worker
// count.
func IdentifyWorkers(repo *vcs.Repo, ix *maintainers.Index, fromTag, midTag, toTag string, th Thresholds, workers int) ([]AuthorStats, error) {
	history, err := repo.Between(fromTag, midTag, vcs.LogOptions{NoMerges: true, OnlyModify: true})
	if err != nil {
		return nil, fmt.Errorf("janitor: %w", err)
	}
	window, err := repo.Between(midTag, toTag, vcs.LogOptions{NoMerges: true, OnlyModify: true})
	if err != nil {
		return nil, fmt.Errorf("janitor: %w", err)
	}
	ids := make([]string, 0, len(history)+len(window))
	ids = append(ids, history...)
	ids = append(ids, window...)

	tallies, _ := sched.Collect(len(ids), sched.Options{Workers: workers}, func(i int) commitTally {
		return tallyCommit(repo, ix, ids[i], i >= len(history))
	})

	authors := make(map[string]*accum)
	for _, ct := range tallies {
		if ct.err != nil {
			return nil, ct.err
		}
		a, ok := authors[ct.email]
		if !ok {
			a = &accum{
				name:       ct.name,
				subsystems: make(map[string]bool),
				lists:      make(map[string]bool),
				fileCounts: make(map[string]int),
			}
			authors[ct.email] = a
		}
		a.patches++
		if ct.inWindow {
			a.windowPatches++
		}
		for _, p := range ct.paths {
			a.fileCounts[p]++
		}
		for _, s := range ct.subsystems {
			a.subsystems[s] = true
		}
		for _, l := range ct.lists {
			a.lists[l] = true
		}
		if ct.maintains {
			a.maintainerHits++
		}
	}

	var out []AuthorStats
	for email, a := range authors {
		st := AuthorStats{
			Name:           a.name,
			Email:          email,
			Patches:        a.patches,
			Subsystems:     len(a.subsystems),
			Lists:          len(a.lists),
			MaintainerFrac: float64(a.maintainerHits) / float64(a.patches),
			WindowPatches:  a.windowPatches,
		}
		counts := make([]float64, 0, len(a.fileCounts))
		for _, n := range a.fileCounts {
			counts = append(counts, float64(n))
		}
		// Map iteration order is random; the CV's floating-point sums are
		// order-sensitive in the last ulp, so sort for reproducible output.
		sort.Float64s(counts)
		st.FileCV = stats.CoefficientOfVariation(counts)
		if st.Patches < th.MinPatches ||
			st.Subsystems < th.MinSubsystems ||
			st.Lists < th.MinLists ||
			st.MaintainerFrac >= th.MaxMaintainerFrac ||
			st.WindowPatches < th.MinWindowPatches {
			continue
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FileCV != out[j].FileCV {
			return out[i].FileCV < out[j].FileCV
		}
		return out[i].Email < out[j].Email
	})
	if th.TopN > 0 && len(out) > th.TopN {
		out = out[:th.TopN]
	}
	return out, nil
}

// tallyCommit computes one commit's contribution to the study.
func tallyCommit(repo *vcs.Repo, ix *maintainers.Index, id string, inWindow bool) commitTally {
	c, err := repo.Get(id)
	if err != nil {
		return commitTally{err: err}
	}
	ct := commitTally{
		email:    c.Author.Email,
		name:     c.Author.Name,
		inWindow: inWindow,
	}
	for _, ch := range c.Changes {
		ct.paths = append(ct.paths, ch.Path)
		ct.subsystems = append(ct.subsystems, ix.SubsystemsFor(ch.Path)...)
		ct.lists = append(ct.lists, ix.ListsFor(ch.Path)...)
		if ix.IsMaintainer(c.Author.Email, ch.Path) {
			ct.maintains = true
		}
	}
	return ct
}

// Emails extracts the address set of the identified janitors, for
// filtering the evaluation's patch stream.
func Emails(js []AuthorStats) map[string]bool {
	out := make(map[string]bool, len(js))
	for _, j := range js {
		out[j.Email] = true
	}
	return out
}
