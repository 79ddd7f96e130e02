package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"jmake/internal/fstree"
	"jmake/internal/trace"
)

// headerChunk is how many candidate .c files one make invocation
// preprocesses while hunting for header coverage. Smaller than the general
// group size so that the search can stop early (the paper reports 1-12
// compilations per header).
const headerChunk = 10

// headerCandidateCap bounds how many candidate .c files are tried per
// header.
const headerCandidateCap = 120

// candidate is one .c file that may exercise a changed header.
type candidate struct {
	path     string
	includes bool
	allHints bool
	anyHint  bool
}

// findHeaderCandidates finds candidates per paper §III-E: .c files that
// directly include the header, and files that refer to the macro names
// changed in it. Priority: include+all-hints, then all-hints, then the
// rest. A header under arch/<A>/ is only relevant to .c files of that
// architecture or outside arch/.
func (c *Checker) findHeaderCandidates(hPath string, hints []string) []candidate {
	relInclude := strings.TrimPrefix(hPath, "include/")
	base := hPath[strings.LastIndexByte(hPath, '/')+1:]
	hArch := ""
	if strings.HasPrefix(hPath, "arch/") {
		rest := strings.TrimPrefix(hPath, "arch/")
		if i := strings.IndexByte(rest, '/'); i > 0 {
			hArch = rest[:i]
		}
	}

	forms := []string{"<" + relInclude + ">", "\"" + base + "\""}
	var out []candidate
	for _, p := range c.tree.Containing(".c", append(forms, hints...)) {
		if hArch != "" && strings.HasPrefix(p, "arch/") && !strings.HasPrefix(p, "arch/"+hArch+"/") {
			continue
		}
		content, _ := c.tree.Read(p) // p exists: Containing listed it
		cand := candidate{path: p}
		if strings.Contains(content, forms[0]) || strings.Contains(content, forms[1]) {
			cand.includes = true
		}
		if len(hints) > 0 {
			cand.allHints = true
			for _, h := range hints {
				if strings.Contains(content, h) {
					cand.anyHint = true
				} else {
					cand.allHints = false
				}
			}
		}
		out = append(out, cand)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return candRank(out[i]) < candRank(out[j])
	})
	return out
}

func candRank(c candidate) int {
	switch {
	case c.includes && c.allHints:
		return 0
	case c.allHints:
		return 1
	default:
		return 2
	}
}

// processHFile hunts .c files that witness the header's remaining
// mutations (paper §III-E). Candidates are processed like a pseudo-patch
// of unmutated .c files against the mutated tree; each make invocation
// covers a chunk, and a candidate whose .i witnesses a pending mutation is
// compiled to an object to validate the configuration.
func (c *Checker) processHFile(report *PatchReport, mutatedTree *fstree.Tree, hf *fileState) {
	cands := c.findHeaderCandidates(hf.path, hf.res.ChangedMacros)
	if len(cands) == 0 {
		return
	}
	hSpan := c.rec.Open(trace.KindHFile,
		trace.A("path", hf.path),
		trace.A("candidates", strconv.Itoa(len(cands))))
	defer c.rec.Close(hSpan)
	// Above the threshold, restrict to allyesconfig only (paper: avoids
	// false positives at a bounded cost; threshold is user-configurable).
	useDefconfigs := len(cands) <= c.opts.HCandidateLimit
	if len(cands) > headerCandidateCap {
		cands = cands[:headerCandidateCap]
	}

	for start := 0; start < len(cands) && len(hf.pendingLive()) > 0; start += headerChunk {
		if c.run.halted() {
			break
		}
		end := start + headerChunk
		if end > len(cands) {
			end = len(cands)
		}
		chunk := cands[start:end]

		perFile := make([][]ArchChoice, 0, len(chunk))
		for _, cand := range chunk {
			perFile = append(perFile, c.selectArches(cand.path, useDefconfigs))
		}
		choices := mergeArchChoices(perFile)

		for _, ac := range choices {
			if len(hf.pendingLive()) == 0 || c.run.halted() {
				break
			}
			arch := c.arches[ac.Arch]
			if arch == nil || arch.Broken {
				continue
			}
			if c.run.quarantined[ac.Arch] {
				if hf.lastErr == nil {
					hf.lastErr = fmt.Errorf("%w: %s", errArchQuarantined, ac.Arch)
				}
				continue
			}
			for _, cc := range ac.Configs {
				if len(hf.pendingLive()) == 0 || c.run.halted() || c.run.quarantined[ac.Arch] {
					break
				}
				bp, err := c.newBuilders(report, mutatedTree, ac.Arch, cc)
				if err != nil {
					if hf.lastErr == nil {
						hf.lastErr = err
					}
					continue
				}
				paths := make([]string, 0, len(chunk))
				for _, cand := range chunk {
					if strings.HasPrefix(cand.path, "arch/") && !strings.HasPrefix(cand.path, "arch/"+ac.Arch+"/") {
						continue
					}
					paths = append(paths, cand.path)
				}
				if len(paths) == 0 {
					continue
				}
				results := c.makeIGroup(report, bp, paths)
				for _, res := range results {
					if res.Err != nil {
						continue
					}
					witnessed := witnessedIn(res.Text, hf.muts)
					c.rec.Mark(trace.KindWitnessScan,
						trace.A("path", res.Path),
						trace.A("witnessed", strconv.Itoa(len(witnessed))))
					if len(witnessed) == 0 {
						continue
					}
					if c.run.halted() || c.run.quarantined[ac.Arch] {
						break
					}
					oerr := c.makeO(report, bp, res.Path)
					if oerr != nil {
						continue
					}
					hf.state.ExtraCCompiles++
					hf.compiledOK = true
					recordUse(hf.state, ac.Arch, cc)
					for _, m := range witnessed {
						m.covered = true
						m.coveredByArch = ac.Arch
						m.coveredByDefconfig = cc.Kind == ConfigDefconfig
					}
					if len(hf.pendingLive()) == 0 {
						break
					}
				}
			}
		}
	}
}
