package core

import (
	"fmt"
	"strings"
	"testing"

	"jmake/internal/textdiff"
	"jmake/internal/vclock"
)

// TestEscapeShapesFromPresence pins the escape classifier, the prescan and
// the coverage wants on #if shapes the generated corpus never emits. All
// three read the presence formula of each enclosing branch. Every case
// puts a block before drv_read(v) in netdrv.c, where allyesconfig turns
// NETDRV and MODDRV on and DEBUG_EXTRA is declared but off.
func TestEscapeShapesFromPresence(t *testing.T) {
	cases := []struct {
		name string
		// base is already in the file; the patch turns it into block.
		base, block string
		opts        Options
		status      Status
		// escapes and warnings render as "changed line → reason", in
		// line order.
		escapes, warnings []string
		viaCoverage       bool
	}{
		{
			name:    "changed ifdef nested in if 0",
			base:    "#if 0\n#ifdef CONFIG_NETDRV\n\tprintk(\"x\");\n#endif\n#endif\n",
			block:   "#if 0\n#ifdef CONFIG_DEBUG_EXTRA\n\tprintk(\"x\");\n#endif\n#endif\n",
			status:  StatusEscapes,
			escapes: []string{"#ifdef CONFIG_DEBUG_EXTRA → if 0"},
		},
		{
			name:   "compiled negated test under prescan",
			block:  "#if !defined(CONFIG_DEBUG_EXTRA)\n\tprintk(\"plain\");\n#endif\n",
			opts:   Options{Prescan: true},
			status: StatusCertified,
		},
		{
			name:    "conjunction with a negated option",
			block:   "#if defined(CONFIG_NETDRV) && !defined(CONFIG_MODDRV)\n\tprintk(\"alone\");\n#endif\n",
			status:  StatusEscapes,
			escapes: []string{"printk(\"alone\"); → ifndef or else"},
		},
		{
			name:        "conjunction with a negated option under coverage",
			block:       "#if defined(CONFIG_NETDRV) && !defined(CONFIG_MODDRV)\n\tprintk(\"alone\");\n#endif\n",
			opts:        Options{CoverageConfigs: true},
			status:      StatusCertified,
			viaCoverage: true,
		},
		{
			name:    "negated bare option",
			block:   "#if !CONFIG_NETDRV\n\tprintk(\"off\");\n#endif\n",
			status:  StatusEscapes,
			escapes: []string{"printk(\"off\"); → ifndef or else"},
		},
		{
			name:    "MODULE inside a conjunction",
			block:   "#if defined(MODULE) && defined(CONFIG_NETDRV)\n\tprintk(\"mod\");\n#endif\n",
			status:  StatusEscapes,
			escapes: []string{"printk(\"mod\"); → ifdef MODULE"},
		},
		{
			name:    "identifier that merely starts with MODULE",
			block:   "#if MODULE_PARAM > 1\n\tprintk(\"param\");\n#endif\n",
			status:  StatusEscapes,
			escapes: []string{"printk(\"param\"); → other"},
		},
		{
			name:    "else of if 1",
			block:   "#if 1\n\tprintk(\"one\");\n#else\n\tprintk(\"never\");\n#endif\n",
			status:  StatusEscapes,
			escapes: []string{"printk(\"never\"); → if 0"},
		},
		{
			name: "else after an elif chain, all bodies changed",
			block: "#if defined(CONFIG_NETDRV)\n\tprintk(\"a\");\n#elif defined(CONFIG_DEBUG_EXTRA)\n" +
				"\tprintk(\"b\");\n#else\n\tprintk(\"c\");\n#endif\n",
			status: StatusEscapes,
			escapes: []string{
				"printk(\"b\"); → both ifdef and else",
				"printk(\"c\"); → both ifdef and else",
			},
		},
		{
			name:     "changed opening directive under prescan",
			block:    "#if 0\n\tprintk(\"old\");\n#else\n\tprintk(\"new\");\n#endif\n",
			opts:     Options{Prescan: true},
			status:   StatusEscapes,
			escapes:  []string{"printk(\"old\"); → if 0"},
			warnings: []string{"printk(\"old\"); → if 0"},
		},
	}
	const anchor = "\tdrv_read(v);"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := fixtureTree()
			orig, _ := tr.Read("drivers/net/netdrv.c")
			if tc.base != "" {
				tr.Write("drivers/net/netdrv.c", strings.Replace(orig, anchor, tc.base+anchor, 1))
			}
			edited := strings.Replace(orig, anchor, tc.block+anchor, 1)
			fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
			ch, err := NewChecker(tr, vclock.DefaultModel(1), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			report, err := ch.CheckPatch("shape", []textdiff.FileDiff{fd})
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(edited, "\n")
			render := func(escs []Escape) []string {
				var out []string
				for _, e := range escs {
					out = append(out, fmt.Sprintf("%s → %s", strings.TrimSpace(lines[e.Mutation.Line-1]), e.Reason))
				}
				return out
			}
			f := findFile(t, report, "drivers/net/netdrv.c")
			if f.Status != tc.status {
				t.Errorf("status = %v, want %v", f.Status, tc.status)
			}
			if got := render(f.Escapes); strings.Join(got, "\n") != strings.Join(tc.escapes, "\n") {
				t.Errorf("escapes = %q, want %q", got, tc.escapes)
			}
			if got := render(report.PrescanWarnings); strings.Join(got, "\n") != strings.Join(tc.warnings, "\n") {
				t.Errorf("prescan warnings = %q, want %q", got, tc.warnings)
			}
			if f.UsedCoverageConfig != tc.viaCoverage {
				t.Errorf("UsedCoverageConfig = %v, want %v", f.UsedCoverageConfig, tc.viaCoverage)
			}
		})
	}
}
