package presence

import (
	"strings"
	"testing"

	"jmake/internal/cpp"
	"jmake/internal/fstree"
)

// FuzzPresenceParse throws arbitrary source at the symbolic conditional
// parser and the full line analysis: malformed #if lines must degrade to
// opaque variables, never panic, and every resulting condition must render
// and answer satisfiability, giving up past MaxSatSymbols.
func FuzzPresenceParse(f *testing.F) {
	f.Add("#if defined(CONFIG_A) && (CONFIG_B > 2)\nint x;\n#endif\n")
	f.Add("#if ((\n#elif ?:\n#else\n#endif\n")
	f.Add("#ifdef\n#elif 1 ? : 0\nint y;\n#endif\n")
	f.Add("#if 'x' == 0x1uLL\n/* c */ int z;\n#endif\n")
	f.Add("#define CONFIG_SELF 1\n#ifdef CONFIG_SELF\nint s;\n#endif\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		// The symbolic expression parser must return, not panic, on any
		// directive argument.
		if e, err := cpp.ParseCondExpr(src); err == nil {
			_ = e.String()
		}
		fa := Analyze("fuzz.c", src)
		for i := 1; i <= fa.Len(); i++ {
			cond := fa.LineCond(i)
			_ = cond.String()
			_ = Decide(cond)
		}
	})
}

// fuzzTokens is the vocabulary FuzzStaticDynamicAgree builds #if
// expressions from: the three option spellings, small literals and the
// operators whose meaning the formula layer models.
var fuzzTokens = []string{
	"defined(CONFIG_A)", "defined CONFIG_B", "CONFIG_C", "0", "1", "2",
	"!", "&&", "||", "?", ":", "(", ")", "+", "-", "==",
}

// cppSource serves one in-memory file to the preprocessor.
type cppSource map[string]string

func (s cppSource) ReadHashed(p string) (string, uint64, bool) {
	c, ok := s[p]
	return c, fstree.Hash(c), ok
}

// FuzzStaticDynamicAgree cross-checks the one #if grammar against the
// formula layer: whenever the formula of an expression has a known value
// under a valuation of its options, the preprocessor, given the same
// valuation as autoconf defines, must take the branch exactly when that
// value is true. The first input byte is the valuation (bit i sets option
// A, B, C), every further byte picks one token.
func FuzzStaticDynamicAgree(f *testing.F) {
	f.Add([]byte{0x1, 0})                        // defined(CONFIG_A), A on
	f.Add([]byte{0x6, 6, 1, 7, 11, 2, 8, 0, 12}) // !defined CONFIG_B && (CONFIG_C || defined(CONFIG_A))
	f.Add([]byte{0x4, 2, 9, 4, 10, 3})           // CONFIG_C ? 1 : 0
	f.Add([]byte{0x0, 6, 11, 0, 7, 5, 12})       // !(defined(CONFIG_A) && 2)
	f.Add([]byte{0x7, 4, 15, 4})                 // 1 == 1: opaque, skipped
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			t.Skip("outside the decoded shape")
		}
		on := map[string]bool{
			"CONFIG_A": data[0]&1 != 0,
			"CONFIG_B": data[0]&2 != 0,
			"CONFIG_C": data[0]&4 != 0,
		}
		toks := make([]string, len(data)-1)
		for i, b := range data[1:] {
			toks[i] = fuzzTokens[int(b)%len(fuzzTokens)]
		}
		expr := strings.Join(toks, " ")
		e, err := cpp.ParseCondExpr(expr)
		if err != nil {
			return
		}
		want, known := EvalPartial(FromCondExpr(e, nil), func(name string) (bool, bool) {
			v, ok := on[name]
			return v, ok
		})
		if !known {
			return
		}
		defines := make(map[string]string)
		for name, v := range on {
			if v {
				defines[name] = "1"
			}
		}
		res, err := cpp.Preprocess(cppSource{"t.c": "#if " + expr + "\nYES\n#endif\n"}, "t.c",
			cpp.Options{Defines: defines})
		if err != nil {
			return
		}
		if got := strings.Contains(res.Output, "YES"); got != want {
			t.Fatalf("#if %s under %v: preprocessor took the branch = %v, formula says %v", expr, on, got, want)
		}
	})
}
