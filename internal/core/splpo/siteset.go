package splpo

// SiteSet is a set of site indices: the one representation of a set of sites
// in solver options, results and the baselines. It is one machine word (bit s
// = site s) and the number of sites it ranges over, so it is a plain value:
// copying it copies the set. Instances have at most MaxSites sites.

import (
	"fmt"
	"math/bits"
	"strings"
)

// SiteSet is a set of open sites over a fixed number of sites.
type SiteSet struct {
	w uint64
	n int // sites the set ranges over
}

// NewSiteSet returns an empty set over n sites.
func NewSiteSet(n int) SiteSet { return SiteSet{n: n} }

// SiteSetOf returns a set over n sites with the given sites open.
func SiteSetOf(n int, sites ...int) SiteSet {
	s := NewSiteSet(n)
	for _, site := range sites {
		s.Add(site)
	}
	return s
}

// siteSetOfWord and word bridge to the solvers' one-word subsets. Bits at or
// past n are dropped.
func siteSetOfWord(n int, w uint64) SiteSet {
	if n < 64 {
		w &= uint64(1)<<uint(n) - 1
	}
	return SiteSet{w: w, n: n}
}

func (s SiteSet) word() uint64 { return s.w }

// Has reports whether site is open.
func (s SiteSet) Has(site int) bool {
	return site >= 0 && site < s.n && s.w&(1<<uint(site)) != 0
}

// Add opens site.
func (s *SiteSet) Add(site int) { s.w |= 1 << uint(site) }

// Count returns the number of open sites.
func (s SiteSet) Count() int { return bits.OnesCount64(s.w) }

// Equal reports whether two sets range over the same sites and open the same
// ones.
func (s SiteSet) Equal(o SiteSet) bool { return s == o }

// Sites expands the set into a sorted site list.
func (s SiteSet) Sites() []int {
	out := make([]int, 0, s.Count())
	for w := s.w; w != 0; w &= w - 1 {
		out = append(out, bits.TrailingZeros64(w))
	}
	return out
}

// String renders the open sites for debugging, as {0 5 40}.
func (s SiteSet) String() string {
	return "{" + strings.Trim(fmt.Sprint(s.Sites()), "[]") + "}"
}
