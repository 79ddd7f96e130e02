package textdiff

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ContextLines is the number of unchanged lines shown around each change in
// a unified diff, matching the diff/git default.
const ContextLines = 3

// Line is one line of a hunk body.
type Line struct {
	Op   byte // ' ' context, '-' removed, '+' added
	Text string
}

// Hunk is one @@-delimited block of a file diff. Starts are 1-based; a
// count of 0 means the start points just before the given line (diff
// convention for pure insertions/deletions).
type Hunk struct {
	OldStart, OldCount int
	NewStart, NewCount int
	Lines              []Line
}

// FileDiff is the diff of a single file. Paths carry no a/ b/ prefix.
type FileDiff struct {
	OldPath, NewPath string
	Hunks            []Hunk
}

// splitLines splits s into lines without trailing newlines. An empty string
// yields no lines; a trailing newline does not produce a final empty line.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// joinLines is the inverse of splitLines: non-empty input gains a trailing
// newline.
func joinLines(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// Diff computes the unified diff between old and new content. It returns
// the zero FileDiff and false when the contents are identical.
func Diff(oldPath, newPath, oldContent, newContent string) (FileDiff, bool) {
	if oldContent == newContent {
		return FileDiff{}, false
	}
	script := myers(splitLines(oldContent), splitLines(newContent))
	fd := FileDiff{OldPath: oldPath, NewPath: newPath}

	// Group edit ops into hunks with ContextLines of context.
	type region struct{ start, end int } // [start,end) in script, covering changes
	var regions []region
	i := 0
	for i < len(script) {
		if script[i].op == ' ' {
			i++
			continue
		}
		j := i
		// Extend while the gap of context between changes is small enough to
		// merge (2*ContextLines).
		for k := i; k < len(script); {
			if script[k].op != ' ' {
				j = k + 1
				k++
				continue
			}
			gap := 0
			for k+gap < len(script) && script[k+gap].op == ' ' {
				gap++
			}
			if k+gap < len(script) && gap <= 2*ContextLines {
				k += gap
				continue
			}
			break
		}
		regions = append(regions, region{i, j})
		i = j
	}

	oldLine, newLine := 1, 1
	pos := 0
	for _, r := range regions {
		// Advance counters through untouched context before the region.
		for pos < r.start {
			if script[pos].op == ' ' {
				oldLine++
				newLine++
			}
			pos++
		}
		lead := r.start - pos // always 0 here; context accounted above
		_ = lead
		start := r.start - ContextLines
		if start < 0 {
			start = 0
		}
		// Walk back counters for leading context included in the hunk.
		backCtx := r.start - start
		h := Hunk{
			OldStart: oldLine - backCtx,
			NewStart: newLine - backCtx,
		}
		end := r.end + ContextLines
		if end > len(script) {
			end = len(script)
		}
		for p := start; p < end; p++ {
			e := script[p]
			h.Lines = append(h.Lines, Line{e.op, e.text})
			switch e.op {
			case ' ':
				h.OldCount++
				h.NewCount++
			case '-':
				h.OldCount++
			case '+':
				h.NewCount++
			}
			if p >= r.start && p < r.end {
				// Keep global counters in sync for ops inside the region.
				switch e.op {
				case ' ':
					oldLine++
					newLine++
				case '-':
					oldLine++
				case '+':
					newLine++
				}
			}
		}
		pos = r.end
		// Unified-diff convention: a zero-count range points at the line
		// *after which* material goes, so its start is decremented.
		if h.OldCount == 0 {
			h.OldStart--
		}
		if h.NewCount == 0 {
			h.NewStart--
		}
		fd.Hunks = append(fd.Hunks, h)
	}
	return fd, true
}

// Format renders fd in unified-diff format with git-style a/ b/ headers.
func Format(fd FileDiff) string {
	var b strings.Builder
	fmt.Fprintf(&b, "diff --git a/%s b/%s\n", fd.OldPath, fd.NewPath)
	fmt.Fprintf(&b, "--- a/%s\n", fd.OldPath)
	fmt.Fprintf(&b, "+++ b/%s\n", fd.NewPath)
	for _, h := range fd.Hunks {
		fmt.Fprintf(&b, "@@ -%d,%d +%d,%d @@\n", h.OldStart, h.OldCount, h.NewStart, h.NewCount)
		for _, l := range h.Lines {
			b.WriteByte(l.Op)
			b.WriteString(l.Text)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FormatPatch renders a multi-file patch.
func FormatPatch(fds []FileDiff) string {
	var b strings.Builder
	for _, fd := range fds {
		b.WriteString(Format(fd))
	}
	return b.String()
}

// ErrBadPatch is returned for malformed patch text.
var ErrBadPatch = errors.New("textdiff: malformed patch")

// ParsePatch parses a (possibly multi-file) unified diff as produced by
// Format or git show. A file diff with hunks must name both paths (its
// ---/+++ pair); one that does not is ErrBadPatch.
func ParsePatch(text string) ([]FileDiff, error) {
	var out []FileDiff
	var cur *FileDiff
	lines := splitLines(text)
	for i := 0; i < len(lines); i++ {
		ln := lines[i]
		switch {
		case strings.HasPrefix(ln, "diff --git "):
			out = append(out, FileDiff{})
			cur = &out[len(out)-1]
		case strings.HasPrefix(ln, "--- "):
			if cur == nil {
				out = append(out, FileDiff{})
				cur = &out[len(out)-1]
			}
			cur.OldPath = stripPathPrefix(strings.TrimPrefix(ln, "--- "))
		case strings.HasPrefix(ln, "+++ "):
			if cur == nil {
				return nil, fmt.Errorf("%w: +++ before ---", ErrBadPatch)
			}
			cur.NewPath = stripPathPrefix(strings.TrimPrefix(ln, "+++ "))
		case strings.HasPrefix(ln, "@@ "):
			if cur == nil {
				return nil, fmt.Errorf("%w: hunk before file header", ErrBadPatch)
			}
			h, err := parseHunkHeader(ln)
			if err != nil {
				return nil, err
			}
			// Body lines follow until counts are satisfied.
			needOld, needNew := h.OldCount, h.NewCount
			for needOld > 0 || needNew > 0 {
				i++
				if i >= len(lines) {
					return nil, fmt.Errorf("%w: truncated hunk", ErrBadPatch)
				}
				bl := lines[i]
				if bl == "" {
					bl = " " // tolerate stripped trailing blanks in context lines
				}
				op := bl[0]
				txt := bl[1:]
				switch op {
				case ' ':
					needOld--
					needNew--
				case '-':
					needOld--
				case '+':
					needNew--
				case '\\': // "\ No newline at end of file"
					continue
				default:
					return nil, fmt.Errorf("%w: bad hunk line %q", ErrBadPatch, bl)
				}
				h.Lines = append(h.Lines, Line{op, txt})
			}
			cur.Hunks = append(cur.Hunks, h)
		}
	}
	for _, fd := range out {
		if len(fd.Hunks) > 0 && (fd.OldPath == "" || fd.NewPath == "") {
			return nil, fmt.Errorf("%w: hunks without a ---/+++ path pair", ErrBadPatch)
		}
	}
	return out, nil
}

func stripPathPrefix(p string) string {
	p = strings.TrimSpace(p)
	for _, pre := range []string{"a/", "b/"} {
		if strings.HasPrefix(p, pre) {
			return p[len(pre):]
		}
	}
	return p
}

func parseHunkHeader(ln string) (Hunk, error) {
	// @@ -l[,c] +l[,c] @@ optional-section
	var h Hunk
	body := strings.TrimPrefix(ln, "@@ ")
	end := strings.Index(body, " @@")
	if end < 0 {
		return h, fmt.Errorf("%w: bad hunk header %q", ErrBadPatch, ln)
	}
	parts := strings.Fields(body[:end])
	if len(parts) != 2 || !strings.HasPrefix(parts[0], "-") || !strings.HasPrefix(parts[1], "+") {
		return h, fmt.Errorf("%w: bad hunk header %q", ErrBadPatch, ln)
	}
	var err error
	h.OldStart, h.OldCount, err = parseRange(parts[0][1:])
	if err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadPatch, err)
	}
	h.NewStart, h.NewCount, err = parseRange(parts[1][1:])
	if err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadPatch, err)
	}
	return h, nil
}

func parseRange(s string) (start, count int, err error) {
	count = 1
	if i := strings.IndexByte(s, ','); i >= 0 {
		count, err = strconv.Atoi(s[i+1:])
		if err != nil {
			return 0, 0, err
		}
		s = s[:i]
	}
	start, err = strconv.Atoi(s)
	return start, count, err
}

// Apply applies fd to content, returning the patched content. Context and
// removed lines must match exactly.
func Apply(content string, fd FileDiff) (string, error) {
	src := splitLines(content)
	var out []string
	srcPos := 0 // 0-based index into src
	for hi, h := range fd.Hunks {
		// Copy untouched lines before the hunk.
		hunkStart := h.OldStart - 1
		if h.OldCount == 0 {
			// Pure insertion: OldStart is the line *after which* to insert.
			hunkStart = h.OldStart
		}
		if hunkStart < srcPos || hunkStart > len(src) {
			return "", fmt.Errorf("%w: hunk %d starts at %d, position %d", ErrBadPatch, hi+1, hunkStart, srcPos)
		}
		out = append(out, src[srcPos:hunkStart]...)
		srcPos = hunkStart
		for _, l := range h.Lines {
			switch l.Op {
			case ' ':
				if srcPos >= len(src) || src[srcPos] != l.Text {
					return "", fmt.Errorf("%w: context mismatch at old line %d", ErrBadPatch, srcPos+1)
				}
				out = append(out, src[srcPos])
				srcPos++
			case '-':
				if srcPos >= len(src) || src[srcPos] != l.Text {
					return "", fmt.Errorf("%w: removal mismatch at old line %d", ErrBadPatch, srcPos+1)
				}
				srcPos++
			case '+':
				out = append(out, l.Text)
			}
		}
	}
	out = append(out, src[srcPos:]...)
	return joinLines(out), nil
}

// ChangedNewLines returns the 1-based line numbers, in the post-patch file,
// that JMake must track for fd (paper §III-B): for hunks that add or modify
// code, the added lines; for hunks that only remove code, the first line
// remaining after the removed block (clamped to the last line of the file,
// i.e. "or the end of the file").
//
// newTotal is the number of lines in the post-patch file, used for the
// end-of-file clamp; pass 0 if unknown to skip clamping.
func ChangedNewLines(fd FileDiff, newTotal int) []int {
	var out []int
	seen := make(map[int]bool)
	add := func(n int) {
		if n < 1 {
			n = 1
		}
		if newTotal > 0 && n > newTotal {
			n = newTotal
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, h := range fd.Hunks {
		newLine := h.NewStart
		if h.NewCount == 0 {
			newLine = h.NewStart + 1
		}
		hasAdd := false
		lastRemovalNew := -1
		for _, l := range h.Lines {
			switch l.Op {
			case ' ':
				newLine++
			case '+':
				hasAdd = true
				add(newLine)
				newLine++
			case '-':
				lastRemovalNew = newLine
			}
		}
		if !hasAdd && lastRemovalNew >= 0 {
			add(lastRemovalNew)
		}
	}
	return out
}
