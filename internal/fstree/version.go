package fstree

import "sync/atomic"

// Version is one immutable version of a file: its content and, once a
// reader asks for them, the content's hash and trigram signature. Nothing
// changes a version's content after NewVersion, so every tree that holds a
// version shares its hash and signature. Both are computed lazily and
// stored atomically, because trees that share versions are read from
// several goroutines; goroutines that race on a first use each compute
// them and store equal values.
type Version struct {
	content string
	// hash is Hash(content), or 0 until first asked for. A content whose
	// hash is 0 is hashed on every call, which is only slower.
	hash atomic.Uint64
	sig  atomic.Pointer[signature] // see Containing
}

// NewVersion returns a version holding content.
func NewVersion(content string) *Version { return &Version{content: content} }

// Content returns the version's content.
func (v *Version) Content() string { return v.content }

// Hash returns Hash(v.Content()), computing it on first use.
func (v *Version) Hash() uint64 {
	if h := v.hash.Load(); h != 0 {
		return h
	}
	h := Hash(v.content)
	v.hash.Store(h)
	return h
}

// signature returns the signature of v's content, computing it on first
// use.
func (v *Version) signature() *signature {
	if s := v.sig.Load(); s != nil {
		return s
	}
	s := new(signature)
	s.add(v.content)
	v.sig.Store(s)
	return s
}

// Hash returns the 64-bit FNV-1a hash of content, the content hash every
// cache in this repository keys file contents by. It allocates nothing.
func Hash(content string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(content); i++ {
		h ^= uint64(content[i])
		h *= prime64
	}
	return h
}
