package cpp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// sharingFiles is a macro-heavy unit: nested, function-like, variadic,
// pasting and stringifying macros, conditionals on expanded macros, and a
// header included twice under a guard.
func sharingFiles() map[string]string {
	var hdr strings.Builder
	hdr.WriteString("#ifndef REGS_H\n#define REGS_H\n")
	hdr.WriteString("#define BIT(n) (1UL << (n))\n#define FIELD(r, f) r ## _ ## f\n")
	hdr.WriteString("#define STR(x) #x\n#define XSTR(x) STR(x)\n#define CALL(f, ...) f(__VA_ARGS__)\n")
	hdr.WriteString("#define TWICE(x) (x) + (x)\n#define SELF SELF + 1\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&hdr, "#define REG%d_CTRL BIT(%d)\n#define REG%d_MASK (REG%d_CTRL | BIT(%d))\n", i, i%31, i, i, (i+1)%31)
	}
	hdr.WriteString("#endif\n")
	var src strings.Builder
	src.WriteString("#include <regs.h>\n#include \"include/regs.h\"\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "#if REG%d_CTRL > 0 && defined(REG%d_MASK)\n", i, i)
		fmt.Fprintf(&src, "int FIELD(reg, %d) = TWICE(REG%d_MASK) + SELF;\n", i, i)
		fmt.Fprintf(&src, "char *name%d = XSTR(REG%d_CTRL);\n", i, i)
		fmt.Fprintf(&src, "int call%d = CALL(fn, REG%d_CTRL, __LINE__, CONFIG_N);\n", i, i)
		src.WriteString("#endif\n")
	}
	src.WriteString("int plain_line = 1;\n")
	return map[string]string{"main.c": src.String(), "include/regs.h": hdr.String()}
}

// Runs that share one TokenCache and one Predefined set must each produce
// what a serial run without a cache produces. Every goroutine reads the
// shared records and expands the shared macro bodies at once; a write to
// either shows up here as a wrong output, and under -race as a race.
func TestConcurrentPreprocessSharesTokens(t *testing.T) {
	files := mapSource(sharingFiles())
	pre := NewPredefined(map[string]string{"CONFIG_N": "BIT(3)", "SELF": "SELF"})
	opts := Options{IncludeDirs: []string{"include"}, Predefined: pre}
	want, err := Preprocess(files, "main.c", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = NewTokenCache()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := Preprocess(files, "main.c", opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Output != want.Output {
					t.Errorf("shared-cache output differs from the serial uncached run")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A line that names no macro comes back from expansion as the same slice,
// with nothing allocated.
func TestExpandUnchangedLineAllocatesNothing(t *testing.T) {
	p := &pp{macros: map[string]*Macro{"LOCAL": {Name: "LOCAL"}},
		pre: NewPredefined(map[string]string{"CONFIG_X": "1"})}
	line := Lex("static int probe(struct device *dev, unsigned long flags) { return dev->id + 0x10; }")
	var out []Token
	allocs := testing.AllocsPerRun(100, func() {
		out, _ = p.expandTokens(line)
	})
	if allocs != 0 {
		t.Errorf("expanding a line with no macro names allocated %.0f times, want 0", allocs)
	}
	if len(out) == 0 || &out[0] != &line[0] {
		t.Errorf("expansion did not return its input slice")
	}
}

// A Token is 32 bytes on 64-bit hosts: token slices dominate what cpp and
// cc allocate.
func TestTokenSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("not a 64-bit host")
	}
	if got := unsafe.Sizeof(Token{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Token{}) = %d, want 32", got)
	}
}
