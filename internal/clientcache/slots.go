package clientcache

import "math/bits"

// Page sizes of a slot store: the first two pages hold firstPage entries
// each and every later page twice the one before, up to pageLen. A cache
// that holds a few paths allocates one small page; a large one grows by
// pageLen entries at a time.
const (
	firstPage = 8
	pageLen   = 256
	// pageShift is log2(pageLen / firstPage); page pageShift+1 is the
	// first full one.
	pageShift = 5
)

// slots is the entry store behind NameCache, AttrCache and LeaseCache:
// an index from path to slot number, and the entries themselves in
// pages that are never copied or moved. Growing the index rehashes
// 4-byte slot numbers instead of whole entries, and each page is
// allocated once. A dropped path's slot goes on a free list, and the
// next new path takes it.
type slots[E any] struct {
	index map[string]int32
	pages [][]E
	free  []int32
	// used counts the slots handed out since the last reset, free or
	// not: slot used is the next one a page provides.
	used int32
}

// pageSize returns the number of slots page p holds.
func pageSize(p uint32) uint32 {
	if p > pageShift {
		return pageLen
	}
	return max(firstPage, uint32(firstPage)<<p/2)
}

// pageOf returns the page and offset of slot i. Pages 1 to pageShift
// each start at the slot whose number equals their size, so below the
// first full page a slot's page is the bit length of i/firstPage.
func pageOf(i int32) (page, off uint32) {
	u := uint32(i)
	if u >= pageLen {
		return u/pageLen + pageShift, u % pageLen
	}
	p := uint32(bits.Len32(u / firstPage))
	return p, u % pageSize(p)
}

// get returns path's entry, or nil if the store holds none.
func (s *slots[E]) get(path string) *E {
	i, ok := s.index[path]
	if !ok {
		return nil
	}
	p, off := pageOf(i)
	return &s.pages[p][off]
}

// put returns path's entry, taking a zeroed slot for a new path.
func (s *slots[E]) put(path string) *E {
	if e := s.get(path); e != nil {
		return e
	}
	if s.index == nil {
		s.index = make(map[string]int32)
	}
	var i int32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		i = s.used
		s.used++
	}
	p, off := pageOf(i)
	if int(p) == len(s.pages) {
		s.pages = append(s.pages, make([]E, pageSize(p)))
	}
	s.index[path] = i
	e := &s.pages[p][off]
	var zero E
	*e = zero
	return e
}

// drop frees path's slot and reports whether it held one. The entry
// stays in its page until put hands the slot out again; no entry type
// holds a pointer, so it keeps nothing alive.
func (s *slots[E]) drop(path string) bool {
	i, ok := s.index[path]
	if !ok {
		return false
	}
	delete(s.index, path)
	s.free = append(s.free, i)
	return true
}

// reset drops every entry and keeps the pages for the next fills.
func (s *slots[E]) reset() {
	clear(s.index)
	s.free = s.free[:0]
	s.used = 0
}

// len returns the number of paths held.
func (s *slots[E]) len() int { return len(s.index) }
