package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestModuleAttribution(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "jmake/internal/cpp.(*lexer).next", "jmake/internal/kbuild.(*Builder).MakeI"}, "cpp"},
		{[]string{"jmake/internal/textdiff.myers", "jmake/internal/vcs.(*Repo).FileDiffs"}, "textdiff"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"net/http.(*conn).serve"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
	if profileLayerOf("textdiff") != "vcs" || profileLayerOf("cliopts") != "helpers" || profileLayerOf("cpp") != "cpp" {
		t.Error("profile layer mapping")
	}
}

var sink int

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += i
		}
	}
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("no samples decoded from a 300ms busy loop")
	}
	found := false
	for _, s := range stacks {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".TestDecodeProfile") {
				found = true
			}
		}
		if s.value <= 0 {
			t.Errorf("sample with value %d", s.value)
		}
	}
	if !found {
		t.Error("the busy test function is on no decoded stack")
	}
	shares, _, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v", total)
	}
}
