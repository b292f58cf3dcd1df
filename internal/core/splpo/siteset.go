package splpo

// SiteSet is a bitset over site indices: the one representation of a set of
// sites, at any site count. The zero value is an empty set over zero sites;
// use NewSiteSet to size one for an instance.
//
// A SiteSet is a plain value wrapper around a word slice: Clone/CopyFrom
// duplicate storage explicitly, everything else mutates in place. None of
// the methods allocate except NewSiteSet, Clone, and Sites.

import (
	"math/bits"
	"strings"
)

// SiteSet is a fixed-capacity bitset of open sites.
type SiteSet struct {
	words []uint64
	n     int // capacity in sites
}

// NewSiteSet returns an empty set with capacity for n sites.
func NewSiteSet(n int) SiteSet {
	return SiteSet{words: make([]uint64, (n+63)/64), n: n}
}

// SiteSetOf returns a set with capacity n and the given sites open.
func SiteSetOf(n int, sites ...int) SiteSet {
	s := NewSiteSet(n)
	for _, site := range sites {
		s.Add(site)
	}
	return s
}

// siteSetOfWord and word are Exhaustive's bridge to its one-word subset
// counter; they are only meaningful at n ≤ 64. Bits at or past n are dropped.
func siteSetOfWord(n int, w uint64) SiteSet {
	s := NewSiteSet(n)
	if len(s.words) > 0 {
		s.words[0] = w
		if n < 64 {
			s.words[0] &= (uint64(1) << uint(n)) - 1
		}
	}
	return s
}

func (s SiteSet) word() uint64 {
	if len(s.words) == 0 {
		return 0
	}
	return s.words[0]
}

// Cap returns the set's site capacity.
func (s SiteSet) Cap() int { return s.n }

// Has reports whether site is open.
func (s SiteSet) Has(site int) bool {
	if site < 0 || site >= s.n {
		return false
	}
	return s.words[site>>6]&(1<<uint(site&63)) != 0
}

// Add opens site.
func (s SiteSet) Add(site int) { s.words[site>>6] |= 1 << uint(site&63) }

// Remove closes site.
func (s SiteSet) Remove(site int) { s.words[site>>6] &^= 1 << uint(site&63) }

// Count returns the number of open sites.
func (s SiteSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no site is open.
func (s SiteSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear closes every site.
func (s SiteSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy.
func (s SiteSet) Clone() SiteSet {
	out := SiteSet{words: make([]uint64, len(s.words)), n: s.n}
	copy(out.words, s.words)
	return out
}

// CopyFrom overwrites s with src. The capacities must match.
func (s SiteSet) CopyFrom(src SiteSet) {
	copy(s.words, src.words)
}

// Equal reports whether two sets open exactly the same sites.
func (s SiteSet) Equal(o SiteSet) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// RemoveAll closes every site open in o.
func (s SiteSet) RemoveAll(o SiteSet) {
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		s.words[i] &^= o.words[i]
	}
}

// ForEach calls fn for every open site in ascending order.
func (s SiteSet) ForEach(fn func(site int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Sites expands the set into a sorted site list.
func (s SiteSet) Sites() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(site int) { out = append(out, site) })
	return out
}

// AppendSites appends the open sites in ascending order to dst.
func (s SiteSet) AppendSites(dst []int) []int {
	s.ForEach(func(site int) { dst = append(dst, site) })
	return dst
}

// Less orders sets lexicographically by ascending site index: the set whose
// first differing word opens a lower site wins. Used for deterministic
// tie-breaks when merging parallel restarts.
func (s SiteSet) Less(o SiteSet) bool {
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		if s.words[i] != o.words[i] {
			// The lower differing bit belongs to exactly one set; the set
			// holding it opens the smaller site.
			diff := s.words[i] ^ o.words[i]
			low := diff & -diff
			return s.words[i]&low != 0
		}
	}
	return len(s.words) < len(o.words)
}

// String renders the open sites for debugging.
func (s SiteSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(site int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(itoa(site))
	})
	b.WriteByte('}')
	return b.String()
}

// itoa is a tiny strconv.Itoa clone so String stays allocation-honest in
// escape analysis (strconv would be fine too; this keeps the import set lean).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
