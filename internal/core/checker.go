package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"jmake/internal/ccache"
	"jmake/internal/cpp"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/presence"
	"jmake/internal/textdiff"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// Checker runs JMake against one post-patch source snapshot.
type Checker struct {
	tree    *fstree.Tree
	model   *vclock.Model
	opts    Options
	meta    *kbuild.Meta
	arches  map[string]*kbuild.Arch
	archIx  *archIndex
	configs *ConfigProvider
	tokens  *cpp.TokenCache
	// results memoizes preprocessing/compilation verdicts across builders
	// and (via Session) across patches; nil disables result caching.
	results *ccache.Cache
	// warm is the session's cache and ledger state: per-arch static
	// Kconfig knowledge, set-up marks and saved-effective-time ledgers.
	warm *warmState

	// gates memoizes the Kbuild descent of the checker's tree for the
	// static pre-pass, created on first use.
	gates *kbuild.MakefileCache

	// run holds the per-patch resilience state (fault injector, budget
	// ledger, circuit breaker); CheckPatch resets it for every patch.
	run *runState

	// rec records the patch's span tree against a per-patch virtual clock
	// (nil disables tracing — every recorder method no-ops). The checker
	// charges each priced duration on the recorder exactly once, so span
	// edges line up with the reported stage totals.
	rec *trace.Recorder
}

// SetTrace installs the per-patch trace recorder. Call it before
// CheckPatch; pass nil to disable (the default).
func (c *Checker) SetTrace(rec *trace.Recorder) { c.rec = rec }

// configTraceKey is the config span's content identity: a hash of the
// ConfigProvider's valuation key, so Trace.Stamp classifies the first
// occurrence of each distinct (arch, kind, path) as "compute" and
// repeats as "reuse" — mirroring the provider's compute-exactly-once
// discipline without consulting its warmth-dependent live counters.
func configTraceKey(parts ...string) uint64 {
	h := fnv.New64a()
	h.Write([]byte("config"))
	for _, p := range parts {
		h.Write([]byte{'|'})
		h.Write([]byte(p))
	}
	return h.Sum64()
}

// NewChecker builds a checker over tree (the snapshot after applying the
// patch under test) from a fresh Session over the same tree.
func NewChecker(tree *fstree.Tree, model *vclock.Model, opts Options) (*Checker, error) {
	s, err := NewSession(tree)
	if err != nil {
		return nil, err
	}
	return s.Checker(tree, model, opts), nil
}

// mutEntry tracks one pending mutation during the run.
type mutEntry struct {
	mut     Mutation
	file    string
	kind    FileKind
	covered bool
	// coveredByArch / coveredByDefconfig record how coverage was obtained.
	coveredByArch      string
	coveredByDefconfig bool
	// coveredByPatchC is true for .h mutations witnessed during the
	// patch's own .c processing.
	coveredByPatchC bool
	// dead is true when the static presence pre-pass proved the mutation's
	// condition unsatisfiable under every candidate architecture; the
	// checker stops chasing it (only with Options.StaticPresence).
	dead bool
}

// fileState tracks one changed file during the run.
type fileState struct {
	path  string
	kind  FileKind
	res   MutateResult
	muts  []*mutEntry
	state *FileOutcome
	// compiledOK is true once some configuration compiled the file (.c)
	// in a pass where the file's *own* mutations were witnessed — errors
	// from other configurations then stop mattering, and the pass earns
	// coverage bookkeeping (UsedArches etc.) for this file.
	compiledOK bool
	// validatedOK is true once some configuration compiled the file at
	// all, even if the pass only witnessed other files' mutations (e.g. a
	// header's marker surfacing in this file's .i). It distinguishes "the
	// file builds but its changed lines never surfaced" (escapes) from
	// "the file never built" (build failure) without letting a borrowed
	// witness stamp this file's coverage statistics.
	validatedOK bool
	lastErr     error
	// pres is the file's presence analysis, built on first use (presenceOf).
	pres *presence.File
	// static is the presence pre-pass result (nil without
	// Options.StaticPresence).
	static *staticInfo
}

// presenceOf returns the presence analysis of the file's post-patch
// content, built once and shared by the prescan, the static pre-pass,
// escape classification and coverage synthesis. nil when the file cannot
// be read.
func (c *Checker) presenceOf(fs *fileState) *presence.File {
	if fs.pres == nil {
		content, err := c.tree.Read(fs.path)
		if err != nil {
			return nil
		}
		fs.pres = presence.Analyze(fs.path, content)
	}
	return fs.pres
}

func (fs *fileState) pending() []*mutEntry {
	var out []*mutEntry
	for _, m := range fs.muts {
		if !m.covered {
			out = append(out, m)
		}
	}
	return out
}

// pendingLive is pending minus statically-dead mutations: the work the
// build loop still owes. Identical to pending when the pre-pass is off.
func (fs *fileState) pendingLive() []*mutEntry {
	var out []*mutEntry
	for _, m := range fs.muts {
		if !m.covered && !m.dead {
			out = append(out, m)
		}
	}
	return out
}

// allDead reports whether every mutation was statically proven dead; such
// a file is never handed to make.
func (fs *fileState) allDead() bool {
	if len(fs.muts) == 0 {
		return false
	}
	for _, m := range fs.muts {
		if !m.dead {
			return false
		}
	}
	return true
}

// staticDead reports whether the file still has unwitnessed mutations and
// every one of them is statically dead.
func (fs *fileState) staticDead() bool {
	pend := fs.pending()
	if len(pend) == 0 {
		return false
	}
	for _, m := range pend {
		if !m.dead {
			return false
		}
	}
	return true
}

// CheckPatch runs the full JMake pipeline on a patch given as per-file
// diffs (as obtained from vcs.FileDiffs or textdiff.ParsePatch).
func (c *Checker) CheckPatch(commit string, fds []textdiff.FileDiff) (*PatchReport, error) {
	report := &PatchReport{Commit: commit}
	c.run = newRunState(c.opts, commit)

	var cFiles, hFiles []*fileState
	mutatedTree := c.tree.Clone()

	classifySpan := c.rec.Open(trace.KindClassify, trace.A("diff_files", strconv.Itoa(len(fds))))
	for _, g := range groupByPath(fds) {
		path := g.path
		kind, ok := classify(path)
		if !ok {
			continue
		}
		fileMark := c.rec.Mark(trace.KindFile, trace.A("path", path), trace.A("kind", kindName(kind)))
		outcome := FileOutcome{Path: path, Kind: kind}
		fs := &fileState{path: path, kind: kind, state: &outcome}

		if c.meta.SetupFiles[path] {
			outcome.Status = StatusSetupFile
			report.Untreatable = true
			report.Files = append(report.Files, outcome)
			continue
		}
		content, err := c.tree.Read(path)
		if err != nil {
			outcome.Status = StatusNoMakefile
			outcome.FailureDetail = err.Error()
			report.Files = append(report.Files, outcome)
			continue
		}
		changed := g.changedLines(countLines(content))
		fs.res = Mutate(path, content, changed)
		outcome.Mutations = len(fs.res.Mutations)
		fileMark.Add(trace.A("mutations", strconv.Itoa(outcome.Mutations)))
		if len(fs.res.Mutations) == 0 {
			outcome.Status = StatusCommentOnly
			report.Files = append(report.Files, outcome)
			continue
		}
		mutatedTree.Write(path, fs.res.Content)
		for i := range fs.res.Mutations {
			fs.muts = append(fs.muts, &mutEntry{mut: fs.res.Mutations[i], file: path, kind: kind})
		}
		switch kind {
		case CFile:
			cFiles = append(cFiles, fs)
		case HFile:
			hFiles = append(hFiles, fs)
		}
		report.Files = append(report.Files, outcome)
	}
	c.rec.Close(classifySpan)
	if report.Untreatable {
		// Paper §V-D: mutating build-setup files breaks every subsequent
		// compilation, so the whole patch is untreatable.
		return report, nil
	}

	// Re-bind file states to the report slice (the appends above copied the
	// outcome values).
	rebind(report, cFiles)
	rebind(report, hFiles)

	// §VII extension: diagnose doomed regions from context alone, before
	// spending any build time.
	if c.opts.Prescan {
		for _, fs := range append(append([]*fileState(nil), cFiles...), hFiles...) {
			for _, esc := range c.classifyEscapes(fs) {
				if esc.Reason != EscapeOther {
					report.PrescanWarnings = append(report.PrescanWarnings, esc)
				}
			}
		}
	}

	// Static presence pre-pass: prove lines dead before any build runs,
	// count the make invocations this prunes, and compute per-architecture
	// visibility predictions for the dynamic cross-check.
	if c.opts.StaticPresence {
		staticSpan := c.rec.Open(trace.KindStatic,
			trace.A("files", strconv.Itoa(len(cFiles)+len(hFiles))))
		c.staticPrepass(report, cFiles, hFiles)
		staticSpan.Add(
			trace.A("pruned_make_i", strconv.Itoa(report.StaticSkippedMakeI)),
			trace.A("pruned_make_o", strconv.Itoa(report.StaticSkippedMakeO)))
		c.rec.Close(staticSpan)
	}

	// §III-D: process the patch's .c files across candidate architectures.
	if len(cFiles) > 0 {
		c.processCFiles(report, mutatedTree, cFiles, hFiles)
		// §VII extension: synthesize coverage configurations for whatever
		// the standard strategies missed.
		if c.opts.CoverageConfigs && !allCovered(cFiles) {
			c.processCoverageConfigs(report, mutatedTree, cFiles)
		}
	}

	// §III-E: headers not fully covered by the patch's own .c files.
	for _, hf := range hFiles {
		if len(hf.pendingLive()) == 0 {
			if len(hf.pending()) == 0 {
				hf.state.CoveredByPatchCs = len(cFiles) > 0
			}
			continue
		}
		c.processHFile(report, mutatedTree, hf)
	}

	// Finalize outcomes and escape analysis.
	c.rec.Mark(trace.KindFinalize, trace.A("files", strconv.Itoa(len(cFiles)+len(hFiles))))
	for _, fs := range append(append([]*fileState(nil), cFiles...), hFiles...) {
		c.finalize(report, fs)
	}
	sortDisagreements(report.StaticDynamicDisagreements)

	for _, d := range report.ConfigDurations {
		report.Total += d
	}
	for _, d := range report.MakeIDurations {
		report.Total += d
	}
	for _, d := range report.MakeODurations {
		report.Total += d
	}
	for _, d := range report.BackoffDurations {
		report.Total += d
	}
	report.FaultEvents = c.run.inj.Events()
	report.BudgetExhausted = c.run.exhausted
	report.Interrupted = c.run.interrupted
	report.QuarantinedArches = c.run.quarantinedList()
	return report, nil
}

// pathDiffs collects the FileDiff entries of one patch that target the
// same cleaned path. Patches occasionally carry several entries for one
// file (split hunk runs, a rename chain re-listing its destination);
// treating each entry as its own file is wrong twice over: the mutated
// tree keeps only the last entry's content, and rebind matches by path,
// so every duplicate's state aliases onto the first FileOutcome.
// Merging before classification yields exactly one file state per path
// whose changed-line set is the union across entries.
type pathDiffs struct {
	path string
	fds  []textdiff.FileDiff
}

func groupByPath(fds []textdiff.FileDiff) []pathDiffs {
	var out []pathDiffs
	index := make(map[string]int, len(fds))
	for _, fd := range fds {
		path := fstree.Clean(fd.NewPath)
		if i, ok := index[path]; ok {
			out[i].fds = append(out[i].fds, fd)
			continue
		}
		index[path] = len(out)
		out = append(out, pathDiffs{path: path, fds: []textdiff.FileDiff{fd}})
	}
	return out
}

// changedLines is the sorted union of ChangedNewLines over the group.
func (g pathDiffs) changedLines(lineCount int) []int {
	if len(g.fds) == 1 {
		return textdiff.ChangedNewLines(g.fds[0], lineCount)
	}
	seen := make(map[int]bool)
	var out []int
	for _, fd := range g.fds {
		for _, ln := range textdiff.ChangedNewLines(fd, lineCount) {
			if !seen[ln] {
				seen[ln] = true
				out = append(out, ln)
			}
		}
	}
	sort.Ints(out)
	return out
}

func rebind(report *PatchReport, fss []*fileState) {
	for _, fs := range fss {
		for i := range report.Files {
			if report.Files[i].Path == fs.path {
				fs.state = &report.Files[i]
				break
			}
		}
	}
}

func kindName(k FileKind) string {
	if k == HFile {
		return "h"
	}
	return "c"
}

func classify(path string) (FileKind, bool) {
	switch {
	case strings.HasSuffix(path, ".c"):
		return CFile, true
	case strings.HasSuffix(path, ".h"):
		return HFile, true
	default:
		return 0, false
	}
}

func countLines(content string) int {
	if content == "" {
		return 0
	}
	return strings.Count(strings.TrimSuffix(content, "\n"), "\n") + 1
}

// builderPair holds the mutated-tree and pristine-tree builders for one
// (arch, config).
type builderPair struct {
	ib *kbuild.Builder // preprocessing over the mutated tree
	ob *kbuild.Builder // object compilation over the pristine tree
}

// newBuilders creates the builder pair, charging the configuration
// creation to the report. Transient configuration-generation failures
// are retried with backoff; toolchain-level failures feed the circuit
// breaker.
func (c *Checker) newBuilders(report *PatchReport, mutatedTree *fstree.Tree, archName string, choice ConfigChoice) (*builderPair, error) {
	arch, ok := c.arches[archName]
	if !ok {
		return nil, fmt.Errorf("core: unknown architecture %q", archName)
	}
	var (
		cfg     *kconfig.Config
		symbols int
		hit     bool
		err     error
	)
	for attempt := 0; ; attempt++ {
		cfg, symbols, hit, err = c.configs.Lookup(c.tree, arch, choice, c.run.inj)
		if err == nil || !kbuild.IsTransient(err) ||
			attempt >= c.run.maxRetries || c.run.halted() {
			break
		}
		c.chargeBackoff(report, attempt+1, "config:"+archName+":"+choice.Kind.String()+choice.Path)
	}
	if err != nil {
		c.run.noteArch(archName, err)
		return nil, err
	}
	bp, err := c.newPair(mutatedTree, arch, cfg)
	if err != nil {
		c.run.noteArch(archName, err)
		return nil, err
	}
	// Warm set-up: once some builder for this (arch, config) context ran
	// its one-time make set-up, later builders behave like a build
	// directory that survived — the full set-up price is still charged
	// into the report (byte-identity), but lands in the saved ledger
	// instead of effective time.
	wasWarm := c.warm.markSetup(archName + "|" + choice.Kind.String() + "|" + choice.Path)
	bp.ib.WarmSetup, bp.ib.SetupSaved = wasWarm, c.warm.setupSaved
	bp.ob.WarmSetup, bp.ob.SetupSaved = wasWarm, c.warm.setupSaved
	d := c.model.ConfigCreate(symbols, report.Commit+":"+archName+":"+choice.Kind.String()+choice.Path)
	report.ConfigDurations = append(report.ConfigDurations, d)
	c.run.charge(d)
	if hit {
		// The valuation came from the session cache: the charge above stays
		// (reports price every `make *config` run), the effective cost is
		// credited back.
		c.warm.configSaved.AddDuration(d)
	}
	if sp := c.rec.Leaf(trace.KindConfig, d,
		trace.A("arch", archName),
		trace.A("config", choice.Kind.String()+choice.Path),
		trace.A("symbols", strconv.Itoa(symbols))); sp != nil {
		sp.Key = configTraceKey(archName, choice.Kind.String(), choice.Path)
	}
	return bp, nil
}

// newPair builds the builder pair for one (arch, config), both sharing the
// checker's token cache, fault injector, result cache and recorder.
func (c *Checker) newPair(mutatedTree *fstree.Tree, arch *kbuild.Arch, cfg *kconfig.Config) (*builderPair, error) {
	var bs [2]*kbuild.Builder
	for i, tree := range []*fstree.Tree{mutatedTree, c.tree} {
		b, err := kbuild.NewBuilder(tree, arch, cfg, c.meta, c.model)
		if err != nil {
			return nil, err
		}
		b.Cache, b.Faults, b.Results, b.Trace = c.tokens, c.run.inj, c.results, c.rec
		bs[i] = b
	}
	return &builderPair{ib: bs[0], ob: bs[1]}, nil
}

// processCFiles drives the §III-D loop: for each candidate architecture
// and configuration, preprocess the relevant mutated .c files together,
// scan for pending mutations (including .h mutations that surface in these
// .i files), and compile the pristine file when its mutations are present.
func (c *Checker) processCFiles(report *PatchReport, mutatedTree *fstree.Tree, cFiles, hFiles []*fileState) {
	perFile := make([][]ArchChoice, 0, len(cFiles))
	for _, fs := range cFiles {
		choices := c.selectArches(fs.path, true)
		if choices == nil {
			fs.lastErr = fmt.Errorf("unsupported architecture for %s", fs.path)
		}
		perFile = append(perFile, choices)
	}
	choices := mergeArchChoices(perFile)
	if c.opts.StaticPresence {
		// Try the architectures predicted to witness the most mutations
		// first, so coverage is reached in fewer builds.
		orderByPredictedWitnesses(choices, cFiles)
	}

	allMuts := collectMuts(cFiles, hFiles)

	for _, ac := range choices {
		if allCovered(cFiles) && allCompiled(cFiles) {
			break
		}
		if c.run.halted() {
			break
		}
		arch := c.arches[ac.Arch]
		if arch == nil || arch.Broken {
			markArchFailure(cFiles, ac.Arch)
			continue
		}
		if c.run.quarantined[ac.Arch] {
			markQuarantined(relevantFiles(cFiles, ac.Arch), ac.Arch)
			continue
		}
		archSpan := c.rec.Open(trace.KindArch, trace.A("arch", ac.Arch))
		for _, cc := range ac.Configs {
			if allCovered(cFiles) && allCompiled(cFiles) {
				break
			}
			if c.run.halted() || c.run.quarantined[ac.Arch] {
				break
			}
			bp, err := c.newBuilders(report, mutatedTree, ac.Arch, cc)
			if err != nil {
				// Only the files this architecture would have compiled can
				// blame it for the failure.
				markErr(relevantFiles(cFiles, ac.Arch), err)
				continue
			}
			relevant := relevantFiles(cFiles, ac.Arch)
			if len(relevant) == 0 {
				continue
			}
			c.runGroup(report, bp, ac.Arch, cc, relevant, allMuts)
		}
		c.rec.Close(archSpan)
		if c.run.quarantined[ac.Arch] {
			markQuarantined(relevantFiles(cFiles, ac.Arch), ac.Arch)
		}
	}
}

// collectMuts gathers every pending mutation across the patch's files.
func collectMuts(groups ...[]*fileState) []*mutEntry {
	var out []*mutEntry
	for _, g := range groups {
		for _, fs := range g {
			out = append(out, fs.muts...)
		}
	}
	return out
}

// relevantFiles selects the .c files worth compiling for an architecture:
// non-arch files are relevant everywhere; arch files only to their own
// architecture (paper §III-D "all of the .c files from a given patch that
// are relevant for that architecture").
func relevantFiles(cFiles []*fileState, arch string) []*fileState {
	var out []*fileState
	for _, fs := range cFiles {
		if fs.allDead() {
			continue // statically pruned: no build can witness anything
		}
		if len(fs.pendingLive()) == 0 && fs.compiledOK {
			continue
		}
		if strings.HasPrefix(fs.path, "arch/") && !strings.HasPrefix(fs.path, "arch/"+arch+"/") {
			continue
		}
		out = append(out, fs)
	}
	return out
}

// runGroup preprocesses files in groups of at most MaxGroupSize, scans the
// .i output for every pending mutation, and compiles pristine files whose
// mutations showed up.
func (c *Checker) runGroup(report *PatchReport, bp *builderPair, archName string, cc ConfigChoice, files []*fileState, allMuts []*mutEntry) {
	for start := 0; start < len(files); start += c.opts.MaxGroupSize {
		if c.run.halted() || c.run.quarantined[archName] {
			break
		}
		end := start + c.opts.MaxGroupSize
		if end > len(files) {
			end = len(files)
		}
		group := files[start:end]
		paths := make([]string, len(group))
		for i, fs := range group {
			paths[i] = fs.path
		}
		results := c.makeIGroup(report, bp, paths)

		for i, res := range results {
			fs := group[i]
			if res.Err != nil {
				fs.lastErr = res.Err
				continue
			}
			found := markerIDs(res.Text)
			// Cross-check the static predictions against what the .i
			// actually shows, before any early exit below can skip it.
			if c.opts.StaticPresence && cc.Kind == ConfigAllYes {
				c.recordDisagreements(report, fs, archName, found)
			}
			// Which pending mutations does this .i witness?
			witnessed := pendingWitnessed(found, allMuts)
			c.rec.Mark(trace.KindWitnessScan,
				trace.A("path", fs.path),
				trace.A("markers", strconv.Itoa(len(found))),
				trace.A("witnessed", strconv.Itoa(len(witnessed))))
			ownPresent := 0
			for _, m := range witnessed {
				if m.file == fs.path {
					ownPresent++
				}
			}
			if len(witnessed) == 0 && (fs.compiledOK || fs.validatedOK) {
				continue
			}
			if c.run.halted() || c.run.quarantined[archName] {
				break
			}
			// Compile the pristine file to validate the configuration.
			oerr := c.makeO(report, bp, fs.path)
			if oerr != nil {
				fs.lastErr = oerr
				continue
			}
			fs.validatedOK = true
			if ownPresent > 0 {
				// Coverage bookkeeping is earned only by the file's own
				// witnessed mutations: a .i carrying nothing but a header's
				// marker proves the header was seen under this
				// configuration, not that this file's changed lines were.
				fs.compiledOK = true
				recordUse(fs.state, archName, cc)
			}
			for _, m := range witnessed {
				if m.covered {
					continue
				}
				m.covered = true
				m.coveredByArch = archName
				m.coveredByDefconfig = cc.Kind == ConfigDefconfig
				if m.kind == HFile {
					m.coveredByPatchC = true
				}
				// Attribute .h coverage to the header's own outcome too.
				if m.file != fs.path {
					recordUseByPath(report, m.file, archName, cc)
				}
			}
		}
	}
}

// witnessedIn returns the pending mutations whose ID occurs in iText, in
// muts order.
func witnessedIn(iText string, muts []*mutEntry) []*mutEntry {
	return pendingWitnessed(markerIDs(iText), muts)
}

// markerIDs collects every mutation-marker token in a .i output. A single
// pass suffices — IDs all share the marker prefix and end at the next
// double quote — so the text is not rescanned once per pending mutation.
func markerIDs(iText string) map[string]bool {
	const prefix = MutationMarker + `"`
	var found map[string]bool
	for off := 0; ; {
		i := strings.Index(iText[off:], prefix)
		if i < 0 {
			break
		}
		start := off + i
		body := start + len(prefix)
		j := strings.IndexByte(iText[body:], '"')
		if j < 0 {
			break // token truncated mid-stream: no witness
		}
		if found == nil {
			found = make(map[string]bool)
		}
		found[iText[start:body+j+1]] = true
		off = body + j + 1
	}
	return found
}

// pendingWitnessed filters muts to the uncovered ones whose ID was found.
func pendingWitnessed(found map[string]bool, muts []*mutEntry) []*mutEntry {
	if len(found) == 0 {
		return nil
	}
	var out []*mutEntry
	for _, m := range muts {
		if !m.covered && found[m.mut.ID] {
			out = append(out, m)
		}
	}
	return out
}

func recordUse(fo *FileOutcome, archName string, cc ConfigChoice) {
	mark := func() {
		switch cc.Kind {
		case ConfigDefconfig:
			fo.UsedDefconfig = true
		case ConfigAllMod:
			fo.UsedAllMod = true
		case ConfigCoverage:
			fo.UsedCoverageConfig = true
		}
	}
	for _, a := range fo.UsedArches {
		if a == archName {
			mark()
			return
		}
	}
	fo.UsedArches = append(fo.UsedArches, archName)
	if archName != kbuild.HostArch {
		fo.NeededBeyondHost = true
	}
	mark()
}

func recordUseByPath(report *PatchReport, path, archName string, cc ConfigChoice) {
	for i := range report.Files {
		if report.Files[i].Path == path {
			recordUse(&report.Files[i], archName, cc)
			return
		}
	}
}

func allCovered(files []*fileState) bool {
	for _, fs := range files {
		if len(fs.pendingLive()) > 0 {
			return false
		}
	}
	return true
}

func allCompiled(files []*fileState) bool {
	for _, fs := range files {
		if fs.allDead() {
			continue // never compiled by design
		}
		if !fs.compiledOK {
			return false
		}
	}
	return true
}

func markArchFailure(files []*fileState, arch string) {
	for _, fs := range files {
		if strings.HasPrefix(fs.path, "arch/"+arch+"/") && fs.lastErr == nil {
			fs.lastErr = fmt.Errorf("%w: %s", kbuild.ErrBrokenArch, arch)
		}
	}
}

func markErr(files []*fileState, err error) {
	for _, fs := range files {
		if fs.lastErr == nil {
			fs.lastErr = err
		}
	}
}

// finalize assigns the file's status and runs escape analysis on
// uncovered mutations.
func (c *Checker) finalize(report *PatchReport, fs *fileState) {
	fo := fs.state
	fo.FoundMutations = len(fs.muts) - len(fs.pending())
	for _, m := range fs.muts {
		switch {
		case m.covered:
			fo.CoveredLines = append(fo.CoveredLines, m.mut.CoversLines...)
			if m.dead {
				// A .i witnessed a line the pre-pass proved dead: the static
				// model missed a constraint. Record it loudly.
				report.StaticDynamicDisagreements = append(report.StaticDynamicDisagreements,
					StaticDisagreement{File: fs.path, Line: m.mut.Line,
						Arch: m.coveredByArch, Predicted: false, Observed: true})
			}
		case m.dead:
			fo.StaticDeadLines = append(fo.StaticDeadLines, m.mut.CoversLines...)
		default:
			fo.EscapedLines = append(fo.EscapedLines, m.mut.CoversLines...)
		}
	}
	sort.Ints(fo.CoveredLines)
	sort.Ints(fo.EscapedLines)
	sort.Ints(fo.StaticDeadLines)
	switch {
	case len(fs.pending()) == 0 && (fs.compiledOK || fs.kind == HFile):
		// Certification is untouched by budget or faults: it structurally
		// requires every mutation witnessed and (for .c) a successful
		// pristine compile.
		fo.Status = StatusCertified
	case fs.staticDead():
		// Everything unwitnessed is provably unreachable; no build was (or
		// could have been) issued for it.
		fo.Status = StatusStaticDead
	case c.run != nil && c.run.exhausted:
		// The budget ran out with work left. Reporting escapes or a build
		// failure here would claim knowledge the checker never bought, so
		// degrade honestly.
		fo.Status = StatusBudgetExhausted
		fo.FailureDetail = "virtual-time budget exhausted"
	case c.run != nil && c.run.interrupted:
		// The caller canceled (deadline, client gone) with work left. Same
		// honesty rule as budget exhaustion: a partial answer, clearly
		// labeled, never escapes the checker did not diagnose. Budget takes
		// precedence above because it is the deterministic cause.
		fo.Status = StatusCanceled
		fo.FailureDetail = "check canceled before completion"
	case fs.compiledOK || fs.validatedOK || (fs.kind == HFile && fo.FoundMutations > 0):
		fo.Status = StatusEscapes
		fo.Escapes = c.classifyEscapes(fs)
	default:
		fo.Status = StatusBuildFailed
		if fs.lastErr != nil {
			fo.FailureDetail = fs.lastErr.Error()
			switch {
			case errors.Is(fs.lastErr, errArchQuarantined):
				fo.Status = StatusArchQuarantined
			case errors.Is(fs.lastErr, kbuild.ErrBrokenArch):
				fo.Status = StatusUnsupportedArch
			case errors.Is(fs.lastErr, kbuild.ErrNoMakefile):
				fo.Status = StatusNoMakefile
			}
		}
	}
}
