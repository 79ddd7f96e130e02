package kbuild

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"jmake/internal/cc"
	"jmake/internal/ccache"
	"jmake/internal/cpp"
	"jmake/internal/faultinject"
	"jmake/internal/fstree"
	"jmake/internal/kconfig"
	"jmake/internal/metrics"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// TreeSource adapts fstree.Tree to the cpp, kconfig and ccache source
// interfaces. Its reads allocate nothing, hits or misses, and ReadHashed
// hands out the file version's memoized content hash, so the token cache
// and the result cache hash each file version once.
type TreeSource struct {
	T *fstree.Tree
}

// ReadFile implements kconfig.Source.
func (s TreeSource) ReadFile(p string) (string, bool) {
	v, ok := s.T.Lookup(p)
	if !ok {
		return "", false
	}
	return v.Content(), true
}

// ReadHashed implements cpp.Source and ccache.Source.
func (s TreeSource) ReadHashed(p string) (string, uint64, bool) {
	v, ok := s.T.Lookup(p)
	if !ok {
		return "", 0, false
	}
	return v.Content(), v.Hash(), true
}

var (
	_ cpp.Source     = TreeSource{}
	_ kconfig.Source = TreeSource{}
	_ ccache.Source  = TreeSource{}
)

// ErrNotReachable is returned when the build never descends to a file for
// the current architecture and configuration ("No rule to make target").
var ErrNotReachable = errors.New("kbuild: file not reachable in this build")

// ErrBrokenArch is returned when the architecture has no working
// cross-compiler.
var ErrBrokenArch = errors.New("kbuild: cross-compiler unavailable")

// Builder performs single-target builds against one tree, architecture and
// configuration, tracking whether set-up work has already been paid (the
// first make invocation for a configuration is much more expensive,
// paper §III-D).
type Builder struct {
	Tree  *fstree.Tree
	Arch  *Arch
	Cfg   *kconfig.Config
	Meta  *Meta
	Model *vclock.Model
	// Cache optionally shares lexing work across builds (see
	// cpp.TokenCache). Set it before the first MakeI/MakeO call.
	Cache *cpp.TokenCache
	// Faults optionally injects deterministic failures into MakeI/MakeO
	// (transient preprocessor errors, truncated .i output, mid-run
	// cross-compiler breakage, stalls). nil disables injection.
	Faults *faultinject.Injector
	// Results memoizes preprocessing and compilation verdicts across
	// builds, patches and runs, keyed by the include closure (see
	// internal/ccache). Every make probes it, and a nil cache is a probe
	// that always misses and stores nothing, so verdicts, reported
	// durations and trace marks are the same with the cache on or off.
	// Reported durations stay at the full recompute price — caching saves
	// real compute, not reported virtual time — with the effective
	// probe-priced ledger kept on the cache itself. Injected faults are
	// rolled before any probe and are never stored or served. Set it
	// before the first MakeI/MakeO call.
	Results *ccache.Cache
	// Makefiles memoizes the Kbuild descent Reachable evaluates. Builders
	// over trees with the same makefiles may share one, since a descent
	// reads nothing else: JMake's pair of builders over the mutated and
	// the pristine tree of one check share their checker's. nil: the
	// builder makes its own over Tree on first use. Set it before the
	// first Reachable, MakeI or MakeO call.
	Makefiles *MakefileCache
	// Trace optionally records every make invocation as a virtual-time
	// span (internal/trace). Spans carry only cache-state- and worker-
	// invariant attributes: probe identities (for post-merge cache-outcome
	// stamping), never live hit/miss outcomes. nil disables recording.
	Trace *trace.Recorder
	// WarmSetup marks this builder's (arch, configuration) build directory
	// as kept warm by a persistent session (commit-stream follower):
	// set-up was already paid by an earlier check and the directory state
	// survives between commits. Reported durations still charge the full
	// first-invocation set-up — reports must stay byte-identical to a cold
	// session's — but SetupSaved is credited with the avoided delta.
	WarmSetup bool
	// SetupSaved, when non-nil with WarmSetup, accumulates the avoided
	// set-up nanoseconds (a registry series shared across builders).
	SetupSaved *metrics.Counter

	invoked bool
	// invokeSeq distinguishes jitter keys between invocations.
	invokeSeq int

	// Memoized result-cache key components; constant for a builder's
	// lifetime (fixed arch, config and tree metadata).
	fpInit       bool
	cfgFP        uint64
	optsFPMod    uint64
	optsFPNonMod uint64

	// Memoized preprocessor options (one per MODULE flag); constant for a
	// builder's lifetime. The embedded Predefined macro set is shared
	// through the token cache across every builder on the same (arch,
	// config) pair, so the CONFIG_* define set is merged and lexed once
	// per configuration rather than once per preprocessed file.
	optsInit   bool
	optsNonMod cpp.Options
	optsMod    cpp.Options
}

// fingerprints memoizes the result-cache key components (fixed for a
// builder's lifetime).
func (b *Builder) fingerprints() {
	if !b.fpInit {
		b.cfgFP = b.Cfg.Fingerprint()
		b.optsFPNonMod = ccache.OptionsFingerprint(b.cppOptions(false))
		b.optsFPMod = ccache.OptionsFingerprint(b.cppOptions(true))
		b.fpInit = true
	}
}

func (b *Builder) optsFP(asModule bool) uint64 {
	if asModule {
		return b.optsFPMod
	}
	return b.optsFPNonMod
}

// probe looks up path's verdict for stage in the result cache. The probe
// computes its key even without a cache, and trace marks carry that key.
func (b *Builder) probe(stage ccache.Stage, asModule bool, path string) *ccache.Probe {
	b.fingerprints()
	return b.Results.Context(stage, b.Arch.Name, b.cfgFP, b.optsFP(asModule)).Probe(TreeSource{b.Tree}, path)
}

// NewBuilder assembles a builder. It fails for architectures marked broken
// in the tree metadata, mirroring make.cross failures.
func NewBuilder(tree *fstree.Tree, arch *Arch, cfg *kconfig.Config, meta *Meta, model *vclock.Model) (*Builder, error) {
	if arch.Broken {
		return nil, fmt.Errorf("%w: %s", ErrBrokenArch, arch.Name)
	}
	return &Builder{Tree: tree, Arch: arch, Cfg: cfg, Meta: meta, Model: model}, nil
}

// Reachable checks that the build descends to file for this configuration:
// every directory on the path is listed (and enabled) in its parent's
// Makefile, and the file's own object rule is enabled. It returns the
// file's rule value (Yes for built-in, Mod for module). The first disabled
// directory wins over a structural error further down the walk.
func (b *Builder) Reachable(file string) (kconfig.Value, error) {
	file = fstree.Clean(file)
	if b.Makefiles == nil {
		b.Makefiles = NewMakefileCache(b.Tree)
	}
	d := b.Makefiles.walk(file, b.Arch.Name)
	for _, s := range d.dirs {
		if b.ruleValue(s.rule) == kconfig.No {
			return kconfig.No, fmt.Errorf("%w: %s disabled at %s", ErrNotReachable, file, s.mk)
		}
	}
	if d.err != nil {
		return kconfig.No, d.err
	}
	v := b.ruleValue(d.own)
	if v == kconfig.No {
		return kconfig.No, fmt.Errorf("%w: rule for %s disabled (CONFIG_%s=n)", ErrNotReachable, d.obj, d.own.CondVar)
	}
	return v, nil
}

func (b *Builder) ruleValue(r ObjRule) kconfig.Value {
	switch {
	case r.CondVar != "":
		return b.Cfg.Value(r.CondVar)
	case r.Module:
		return kconfig.Mod
	default:
		return kconfig.Yes
	}
}

// IFile is the outcome of preprocessing one file in a MakeI invocation.
type IFile struct {
	Path string
	Text string
	Work vclock.FileWork
	// Err is non-nil when this file failed (unreachable, missing include,
	// #error, ...); other files in the same invocation may still succeed.
	Err error

	// key is the file's result-cache probe key, 0 when it stopped before
	// probing (a pre-probe fault or an unreachable file).
	key uint64
}

// cppOptions returns the preprocessor options for one file. asModule adds
// the MODULE define, as Kbuild does when compiling modular objects — this
// is why `#ifdef MODULE` code escapes allyesconfig (paper Table IV).
func (b *Builder) cppOptions(asModule bool) cpp.Options {
	if !b.optsInit {
		b.optsNonMod = b.buildOptions(false)
		b.optsMod = b.buildOptions(true)
		b.optsInit = true
	}
	if asModule {
		return b.optsMod
	}
	return b.optsNonMod
}

func (b *Builder) buildOptions(asModule bool) cpp.Options {
	build := func() map[string]string {
		cfgDefs := b.Cfg.Defines()
		defines := make(map[string]string, len(b.Arch.Defines)+len(cfgDefs)+1)
		for k, v := range b.Arch.Defines {
			defines[k] = v
		}
		for k, v := range cfgDefs {
			defines[k] = v
		}
		if asModule {
			defines["MODULE"] = "1"
		}
		return defines
	}
	var pre *cpp.Predefined
	if b.Cache != nil {
		// The election key must identify the define set's content: the
		// config fingerprint covers every CONFIG_* value, and within one
		// token cache's lifetime (one checker, one discovered arch table)
		// the arch name pins the arch built-ins and include dirs.
		h := fnv.New64a()
		_, _ = h.Write([]byte(b.Arch.Name))
		_, _ = h.Write([]byte{0})
		var buf [9]byte
		binary.BigEndian.PutUint64(buf[:8], b.Cfg.Fingerprint())
		if asModule {
			buf[8] = 1
		}
		_, _ = h.Write(buf[:])
		pre = b.Cache.PredefinedFor(h.Sum64(), build)
	} else {
		pre = cpp.NewPredefined(build())
	}
	return cpp.Options{IncludeDirs: b.Arch.IncludeDirs, Predefined: pre, Cache: b.Cache}
}

// MakeI runs `make f1.i f2.i ...` for a group of files (the paper groups
// up to 50 files per invocation). It returns per-file results and the
// virtual duration of the whole invocation.
func (b *Builder) MakeI(files []string) ([]IFile, time.Duration) {
	b.invokeSeq++
	first := !b.invoked
	b.invoked = true

	key := fmt.Sprintf("%s:%d", b.Arch.Name, b.invokeSeq)
	var span *trace.Span
	evBase := 0
	if b.Trace != nil {
		b.fingerprints()
		evBase = b.Faults.EventCount()
		span = b.Trace.Open(trace.KindMakeI,
			trace.A("arch", b.Arch.Name),
			trace.A("cfg", fmt.Sprintf("%016x", b.cfgFP)),
			trace.A("files", fmt.Sprintf("%d", len(files))),
			trace.A("first", fmt.Sprintf("%t", first)))
	}
	archDown := b.Faults.ArchBroken(b.Arch.Name)
	results := make([]IFile, 0, len(files))
	var works []vclock.FileWork // every preprocessed file: the full (reported) price
	// Effective-ledger state: recomputed files' work plus probe costs for
	// the hits.
	var missWorks []vclock.FileWork
	var probeCost time.Duration
	var stored map[uint64]bool // probe keys stored by this invocation (dedupe)
	for _, f := range files {
		r := IFile{Path: fstree.Clean(f)}
		if archDown {
			r.Err = fmt.Errorf("%w: %s (broke mid-run)", ErrBrokenArch, b.Arch.Name)
			results = append(results, r)
			continue
		}
		// Faults roll before any cache probe: an injected failure is never
		// stored, and a file the fault hits is never served from cache, so
		// the fault sequence (and every report) is cache-state-independent.
		if b.Faults.FailPreprocess(b.Arch.Name + ":i:" + r.Path) {
			r.Err = fmt.Errorf("%w: preprocessor crashed on %s (%s)", ErrTransient, r.Path, b.Arch.Name)
			results = append(results, r)
			continue
		}
		// Reachability never enters the result cache: it is read from
		// this snapshot's descent memo, so a Kbuild gate or Makefile edit
		// takes effect in the first snapshot that holds it.
		v, err := b.Reachable(r.Path)
		if err != nil {
			r.Err = err
			results = append(results, r)
			continue
		}
		p := b.probe(ccache.StageI, v == kconfig.Mod, r.Path)
		r.key = p.Key
		if p.Hit {
			probeCost += b.Model.CacheProbe(p.Deps, key+":"+r.Path)
			if stored[p.Key] {
				b.Results.NoteDedup(ccache.StageI)
			}
			if p.Failed {
				r.Err = errors.New(p.ErrText)
				results = append(results, r)
				continue
			}
			r.Text, r.Work = p.Text, p.Work
		} else {
			text, work, err := b.preprocessMiss(p, r.Path, v == kconfig.Mod)
			if stored == nil {
				stored = make(map[uint64]bool)
			}
			stored[p.Key] = true
			if err != nil {
				r.Err = err
				results = append(results, r)
				continue
			}
			r.Text, r.Work = text, work
			missWorks = append(missWorks, r.Work)
		}
		// The cache holds the clean text: the truncation fault applies to
		// this copy only, so it is never served to a later probe.
		if b.Faults.TruncateI(b.Arch.Name + ":i:" + r.Path) {
			r.Text = r.Text[:len(r.Text)/2]
		}
		works = append(works, r.Work)
		results = append(results, r)
	}
	dur := b.Model.MakeI(first, b.Arch.SetupOps, works, key)
	if eff := b.Model.MakeI(first, b.Arch.SetupOps, missWorks, key) + probeCost; eff < dur {
		b.Results.AddSaved(ccache.StageI, dur-eff)
	}
	b.creditWarmSetup(first,
		b.Model.MakeI(true, b.Arch.SetupOps, nil, key)-b.Model.MakeI(false, b.Arch.SetupOps, nil, key))
	dur += b.Faults.Stall(key)
	if span != nil {
		evs := b.Faults.EventsSince(evBase)
		for _, r := range results {
			attrs := []trace.Attr{trace.A("path", r.Path), trace.A("outcome", outcomeOf(r.Err))}
			for _, ev := range evs {
				if ev.Op == b.Arch.Name+":i:"+r.Path {
					attrs = append(attrs, trace.A("fault", ev.Kind.String()))
				}
			}
			b.Trace.Mark(trace.KindFile, attrs...).Key = r.key
		}
		for _, ev := range evs {
			if ev.Op == key || ev.Op == b.Arch.Name {
				span.Add(trace.A("fault", ev.Kind.String()))
			}
		}
		b.Trace.Advance(dur)
		b.Trace.Close(span)
	}
	return results, dur
}

// preprocessMiss preprocesses path after p missed and finishes p with the
// outcome. The deferred Cancel releases p's in-flight slot when cpp
// panics, so later probes of its key do not wait forever; after a store it
// does nothing.
func (b *Builder) preprocessMiss(p *ccache.Probe, path string, asModule bool) (string, vclock.FileWork, error) {
	defer p.Cancel()
	res, err := cpp.Preprocess(TreeSource{b.Tree}, path, b.cppOptions(asModule))
	if err != nil {
		p.StoreFailure(res.Inputs, res.Missing, err.Error())
		return "", vclock.FileWork{}, err
	}
	work := vclock.FileWork{Lines: res.InputLines, Includes: res.Includes}
	p.StoreI(res.Inputs, res.Missing, res.Output, work)
	return res.Output, work, nil
}

// outcomeOf classifies a make result for span attributes. Every class is
// deterministic: fault-injected outcomes follow the seeded plan, and
// cached verdicts reproduce the recomputed error text exactly.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotReachable):
		return "unreachable"
	case errors.Is(err, ErrBrokenArch):
		return "arch-broken"
	case errors.Is(err, ErrTransient):
		return "transient"
	default:
		return "error"
	}
}

// MakeO runs `make file.o`: preprocess then compile. The returned duration
// includes the whole-kernel prerequisite build when the tree metadata
// marks the file that way (paper §V-C).
func (b *Builder) MakeO(file string) (cc.Object, time.Duration, error) {
	file = fstree.Clean(file)
	if b.Trace == nil {
		obj, dur, _, err := b.makeO(file)
		return obj, dur, err
	}
	b.fingerprints()
	span := b.Trace.Open(trace.KindMakeO,
		trace.A("arch", b.Arch.Name),
		trace.A("cfg", fmt.Sprintf("%016x", b.cfgFP)),
		trace.A("path", file))
	evBase := b.Faults.EventCount()
	obj, dur, key, err := b.makeO(file)
	span.Add(trace.A("outcome", outcomeOf(err)))
	for _, ev := range b.Faults.EventsSince(evBase) {
		span.Add(trace.A("fault", ev.Kind.String()))
	}
	// A make that reached its probe records the probe's key on a
	// cache-probe mark, so post-merge stamping can assign the
	// deterministic cache outcome.
	if key != 0 {
		b.Trace.Mark(trace.KindCacheProbe, trace.A("path", file)).Key = key
	}
	b.Trace.Advance(dur)
	b.Trace.Close(span)
	return obj, dur, err
}

// makeO builds a cleaned file path. It also returns the result-cache
// probe key, 0 when it stopped before probing.
func (b *Builder) makeO(file string) (cc.Object, time.Duration, uint64, error) {
	b.invokeSeq++
	first := !b.invoked
	b.invoked = true
	key := fmt.Sprintf("%s:o:%d", b.Arch.Name, b.invokeSeq)

	failBase := b.Model.MakeO(first, b.Arch.SetupOps, 0, 0, key)
	// Every path below charges `first` pricing exactly once (failBase or
	// the success duration share the key, and jitter multiplies the whole
	// charge), so the warm-set-up credit is exact at any exit.
	b.creditWarmSetup(first,
		failBase-b.Model.MakeO(false, b.Arch.SetupOps, 0, 0, key))
	stall := b.Faults.Stall(key)
	failDur := failBase + stall
	// Injected faults roll before any cache interaction (see MakeI).
	if b.Faults.ArchBroken(b.Arch.Name) {
		return cc.Object{}, failDur, 0, fmt.Errorf("%w: %s (broke mid-run)", ErrBrokenArch, b.Arch.Name)
	}
	if b.Faults.FailPreprocess(b.Arch.Name + ":o:" + file) {
		return cc.Object{}, failDur, 0, fmt.Errorf("%w: compiler crashed on %s (%s)", ErrTransient, file, b.Arch.Name)
	}
	v, err := b.Reachable(file)
	if err != nil {
		return cc.Object{}, failDur, 0, err
	}
	p := b.probe(ccache.StageO, v == kconfig.Mod, file)
	// Release a miss's in-flight slot when cpp or cc panics; after a hit
	// or a store, Cancel does nothing.
	defer p.Cancel()
	var probeCost time.Duration
	obj := p.Object
	if p.Hit {
		probeCost = b.Model.CacheProbe(p.Deps, key)
		if p.Failed {
			if probeCost < failBase {
				b.Results.AddSaved(ccache.StageO, failBase-probeCost)
			}
			return cc.Object{}, failDur, p.Key, errors.New(p.ErrText)
		}
	} else {
		res, err := cpp.Preprocess(TreeSource{b.Tree}, file, b.cppOptions(v == kconfig.Mod))
		if err == nil {
			obj, err = cc.Compile(res.Output)
		}
		if err != nil {
			p.StoreFailure(res.Inputs, res.Missing, err.Error())
			return cc.Object{}, failDur, p.Key, err
		}
		p.StoreO(res.Inputs, res.Missing, obj)
	}
	prereq := 0
	if b.Meta.WholeBuildFiles[file] {
		prereq = b.Tree.Len() // every file in the tree, approximating "the entire kernel"
	}
	dur := b.Model.MakeO(first, b.Arch.SetupOps, obj.Lines, prereq, key)
	if p.Hit && probeCost < dur {
		b.Results.AddSaved(ccache.StageO, dur-probeCost)
	}
	return obj, dur + stall, p.Key, nil
}

// SetSetupDone marks the configuration's Makefile set-up as already paid,
// for a second builder sharing a configured tree (JMake preprocesses the
// mutated tree and compiles the pristine one under the same configuration,
// so only the first invocation pays full set-up).
func (b *Builder) SetSetupDone() { b.invoked = true }

// creditWarmSetup credits the warm-session ledger with the difference
// between first-invocation set-up and the incremental re-check the
// invocation would really have performed against a warm build directory.
func (b *Builder) creditWarmSetup(first bool, delta time.Duration) {
	if first && b.WarmSetup && b.SetupSaved != nil {
		b.SetupSaved.AddDuration(delta)
	}
}
