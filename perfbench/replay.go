package main

import (
	"fmt"
	"strings"
	"time"

	"jmake/internal/cc"
	"jmake/internal/ccache"
	"jmake/internal/core"
	"jmake/internal/cpp"
	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// The benchmark cannot put spans inside Checker.CheckPatch without
// changing the program, so for kconfig, kbuild, cpp, cc and ccache it
// replays, after each operation, the calls that operation's virtual span
// tree records, against those modules' public functions on the same
// post-commit tree:
//
//   - config spans: a fresh core.ConfigProvider parses the arch's Kconfig
//     (kconfig.parse) and derives the configuration (kconfig.config), so
//     both are priced cold, as on an arch's first touch;
//   - make.i file marks and make.o spans: Builder.Reachable for every
//     listed file (kbuild.reachable), then a probe of a result cache the
//     replayer holds: a hit is timed as ccache.probe, a miss runs
//     cpp.Preprocess (cpp.preprocess) and, for make.o, cc.Compile
//     (cc.compile), and stores the verdict.
//
// The replay cache and token cache start empty when the replayer is made
// and warm in operation order, like a session's; with a nil log the
// replayer only warms them (the service replays its warm-up that way). Preprocessing replays
// the pristine post-commit tree: the checker's mutation markers change a
// few tokens of the changed lines only.

type preKey struct {
	arch string
	cfg  uint64
	mod  bool
}

type preEntry struct {
	opts cpp.Options
	fp   uint64
}

type replayer struct {
	log     *spanLog
	meta    *kbuild.Meta
	arches  map[string]*kbuild.Arch
	model   *vclock.Model
	warm    *core.ConfigProvider       // resolves the builders' configurations, untimed
	cfgs    map[string]*kconfig.Config // by "%016x" fingerprint, as spans name them
	pre     map[preKey]preEntry
	tokens  *cpp.TokenCache
	results *ccache.Cache

	// Work tallies for the rate metrics.
	lines      int
	preprocess time.Duration
	ccBytes    int
	compile    time.Duration
	// unresolved counts make spans whose configuration no earlier config
	// span of the same operation named (they are skipped).
	unresolved int
}

func newReplayer(base *fstree.Tree, log *spanLog) (*replayer, error) {
	meta, err := kbuild.LoadMeta(base)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return &replayer{
		log:     log,
		meta:    meta,
		arches:  kbuild.DiscoverArches(base, meta),
		model:   vclock.DefaultModel(1),
		warm:    core.NewConfigProvider(),
		cfgs:    make(map[string]*kconfig.Config),
		pre:     make(map[preKey]preEntry),
		tokens:  cpp.NewTokenCache(),
		results: ccache.New(),
	}, nil
}

// clone replays the per-patch tree clone CheckPatch performs.
func (r *replayer) clone(op, parent int, tree *fstree.Tree) {
	r.log.replay("fstree.clone", op, parent, func() { _ = tree.Clone() })
}

// span replays every call recorded in one operation's virtual span tree.
// parent is the operation's check span; configuration replays hang off
// the operation root instead (op, parent 0), because they price a cold
// creation the checker mostly serves from its cache, and must not be
// subtracted from the check's self time.
func (r *replayer) span(op, parent int, tree *fstree.Tree, root *trace.Span) {
	root.Walk(func(s *trace.Span) {
		switch s.Kind {
		case trace.KindConfig:
			r.config(op, tree, s)
		case trace.KindMakeI:
			for _, c := range s.Children {
				if c.Kind != trace.KindFile {
					continue
				}
				path, _ := c.Attr("path")
				outcome, _ := c.Attr("outcome")
				r.make(op, parent, tree, s, ccache.StageI, path, outcome)
			}
		case trace.KindMakeO:
			path, _ := s.Attr("path")
			outcome, _ := s.Attr("outcome")
			r.make(op, parent, tree, s, ccache.StageO, path, outcome)
		}
	})
}

// parseChoice inverts the config span's "config" attribute
// (ConfigKind.String() + defconfig path). Coverage configurations are
// synthesized per region and not replayed.
func parseChoice(s string) (core.ConfigChoice, bool) {
	switch {
	case s == "allyesconfig":
		return core.ConfigChoice{Kind: core.ConfigAllYes}, true
	case s == "allmodconfig":
		return core.ConfigChoice{Kind: core.ConfigAllMod}, true
	case strings.HasPrefix(s, "defconfig"):
		return core.ConfigChoice{Kind: core.ConfigDefconfig, Path: strings.TrimPrefix(s, "defconfig")}, true
	}
	return core.ConfigChoice{}, false
}

func (r *replayer) config(op int, tree *fstree.Tree, s *trace.Span) {
	archName, _ := s.Attr("arch")
	cfgName, _ := s.Attr("config")
	arch, ok := r.arches[archName]
	choice, ok2 := parseChoice(cfgName)
	if !ok || !ok2 {
		return
	}
	if r.log != nil {
		fresh := core.NewConfigProvider()
		var err error
		r.log.replay("kconfig.parse", op, 0, func() { _, err = fresh.KconfigTree(tree, arch) })
		if err == nil {
			r.log.replay("kconfig.config", op, 0, func() { _, _, err = fresh.Get(tree, arch, choice, nil) })
		}
	}
	cfg, _, err := r.warm.Get(tree, arch, choice, nil)
	if err != nil {
		return
	}
	key := fmt.Sprintf("%016x", cfg.Fingerprint())
	if _, ok := r.cfgs[key]; !ok {
		r.cfgs[key] = cfg
	}
}

// options mirrors the builder's preprocessor options for one (arch,
// configuration, MODULE) context, memoized like the session's shared
// predefined-macro sets.
func (r *replayer) options(arch *kbuild.Arch, cfg *kconfig.Config, mod bool) preEntry {
	k := preKey{arch: arch.Name, cfg: cfg.Fingerprint(), mod: mod}
	if e, ok := r.pre[k]; ok {
		return e
	}
	defines := make(map[string]string)
	for n, v := range arch.Defines {
		defines[n] = v
	}
	for n, v := range cfg.Defines() {
		defines[n] = v
	}
	if mod {
		defines["MODULE"] = "1"
	}
	opts := cpp.Options{IncludeDirs: arch.IncludeDirs, Predefined: cpp.NewPredefined(defines), Cache: r.tokens}
	e := preEntry{opts: opts, fp: ccache.OptionsFingerprint(opts)}
	r.pre[k] = e
	return e
}

func (r *replayer) make(op, parent int, tree *fstree.Tree, s *trace.Span, stage ccache.Stage, path, outcome string) {
	archName, _ := s.Attr("arch")
	cfgKey, _ := s.Attr("cfg")
	arch, ok := r.arches[archName]
	cfg := r.cfgs[cfgKey]
	if !ok || cfg == nil {
		r.unresolved++
		return
	}
	b, err := kbuild.NewBuilder(tree, arch, cfg, r.meta, r.model)
	if err != nil {
		return
	}
	var v kconfig.Value
	r.log.replay("kbuild.reachable", op, parent, func() { v, err = b.Reachable(path) })
	if err != nil || (outcome != "ok" && outcome != "error") {
		return
	}
	src := kbuild.TreeSource{T: tree}
	pe := r.options(arch, cfg, v == kconfig.Mod)
	start := time.Now()
	p := r.results.Context(stage, arch.Name, cfg.Fingerprint(), pe.fp).Probe(src, path)
	if p.Hit {
		r.log.replayAt("ccache.probe", op, parent, start, time.Now())
		return
	}
	var res cpp.Result
	id := r.log.replay("cpp.preprocess", op, parent, func() { res, err = cpp.Preprocess(src, path, pe.opts) })
	if d := r.log.duration(id); d > 0 {
		r.preprocess += d
		r.lines += res.InputLines
	}
	if err != nil {
		p.StoreFailure(res.Inputs, res.Missing, err.Error())
		return
	}
	if stage == ccache.StageI {
		p.StoreI(res.Inputs, res.Missing, res.Output, vclock.FileWork{Lines: res.InputLines, Includes: res.Includes})
		return
	}
	var obj cc.Object
	id = r.log.replay("cc.compile", op, parent, func() { obj, err = cc.Compile(res.Output) })
	if d := r.log.duration(id); d > 0 {
		r.compile += d
		r.ccBytes += len(res.Output)
	}
	if err != nil {
		p.StoreFailure(res.Inputs, res.Missing, err.Error())
		return
	}
	p.StoreO(res.Inputs, res.Missing, obj)
}
