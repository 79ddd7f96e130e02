package fstree

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClean(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"a/b", "a/b"},
		{"./a/b", "a/b"},
		{"a//b", "a/b"},
		{"/a/b", "a/b"},
		{"a/./b", "a/b"},
		{"a/c/../b", "a/b"},
		{".", ""},
		{"", ""},
		{"a\\b", "a/b"},
	}
	for _, tt := range tests {
		if got := Clean(tt.in); got != tt.want {
			t.Errorf("Clean(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestWriteReadRemove(t *testing.T) {
	tr := New()
	tr.Write("drivers/net/a.c", "int x;")
	got, err := tr.Read("./drivers//net/a.c")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got != "int x;" {
		t.Errorf("Read = %q", got)
	}
	if !tr.Exists("drivers/net/a.c") {
		t.Error("Exists = false, want true")
	}
	if err := tr.Remove("drivers/net/a.c"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := tr.Read("drivers/net/a.c"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Read after Remove: err = %v, want ErrNotExist", err)
	}
	if err := tr.Remove("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Remove missing: err = %v, want ErrNotExist", err)
	}
}

func TestUnder(t *testing.T) {
	tr := New()
	tr.Write("arch/x86/Makefile", "m")
	tr.Write("arch/x86/kernel/a.c", "a")
	tr.Write("arch/arm/Makefile", "m")
	tr.Write("drivers/net/b.c", "b")

	// The same answers from a plain tree and from a clone over a base.
	for name, tr := range map[string]*Tree{"plain": tr, "clone": tr.Clone()} {
		got := tr.Under("arch/x86")
		want := []string{"arch/x86/Makefile", "arch/x86/kernel/a.c"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Under(arch/x86) = %v, want %v", name, got, want)
		}
		if got := tr.Under("arch/mips"); len(got) != 0 {
			t.Errorf("%s: Under(arch/mips) = %v, want none", name, got)
		}
		if len(tr.Under("")) != 4 {
			t.Errorf("%s: Under(\"\") len = %d, want 4", name, len(tr.Under("")))
		}
		// "arch/x8" is a prefix of "arch/x86" as a string but not a directory.
		if got := tr.Under("arch/x8"); len(got) != 0 {
			t.Errorf("%s: Under(arch/x8) = %v, want none: not a real directory", name, got)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	tr := New()
	tr.Write("a.c", "one")
	cl := tr.Clone()
	cl.Write("a.c", "two")
	cl.Write("b.c", "new")

	if got, _ := tr.Read("a.c"); got != "one" {
		t.Errorf("original mutated: a.c = %q", got)
	}
	if tr.Exists("b.c") {
		t.Error("original gained b.c from clone")
	}
	if got, _ := cl.Read("a.c"); got != "two" {
		t.Errorf("clone a.c = %q", got)
	}
}

func TestWalkOrderAndError(t *testing.T) {
	tr := New()
	tr.Write("b.c", "2")
	tr.Write("a.c", "1")
	tr.Write("c.c", "3")

	var order []string
	err := tr.Walk(func(p, c string) error {
		order = append(order, p)
		return nil
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if !reflect.DeepEqual(order, []string{"a.c", "b.c", "c.c"}) {
		t.Errorf("Walk order = %v", order)
	}

	sentinel := errors.New("stop")
	var n int
	err = tr.Walk(func(p, c string) error {
		n++
		if p == "b.c" {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("Walk err = %v, want sentinel", err)
	}
	if n != 2 {
		t.Errorf("Walk visited %d files before stop, want 2", n)
	}
}

func TestPathsSorted(t *testing.T) {
	tr := New()
	for _, p := range []string{"z", "m/a", "a", "m/b"} {
		tr.Write(p, p)
	}
	want := []string{"a", "m/a", "m/b", "z"}
	if got := tr.Paths(); !reflect.DeepEqual(got, want) {
		t.Errorf("Paths = %v, want %v", got, want)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
}

// Property: for any path and content, a write followed by a read round-trips
// through Clean.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	f := func(p string, content string) bool {
		if Clean(p) == "" {
			return true // no file named by the empty path
		}
		tr := New()
		tr.Write(p, content)
		got, err := tr.Read(p)
		return err == nil && got == content
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clean is idempotent.
func TestQuickCleanIdempotent(t *testing.T) {
	f := func(p string) bool {
		return Clean(Clean(p)) == Clean(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
