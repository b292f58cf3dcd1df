package prefs

import "slices"

// ClientColumn is a strictly ascending column of clients: the row key of a
// Store and of discovery's RTT table. A point lookup binary-searches it
// (Find); a caller walking another sorted client column steps through it
// with Seek.
type ClientColumn []Client

// Find returns c's row and true, or the row c would be inserted at and
// false.
func (k ClientColumn) Find(c Client) (int, bool) { return slices.BinarySearch(k, c) }

// Seek returns the first row at or after from whose client is not below c,
// and whether that row is c's. It scans forward, so a caller walking another
// sorted client column and feeding each result back as the next from pays one
// pass over this one in total.
func (k ClientColumn) Seek(from int, c Client) (int, bool) {
	for from < len(k) && k[from] < c {
		from++
	}
	return from, from < len(k) && k[from] == c
}

// Ascending reports whether the column is strictly ascending, which Find and
// Seek assume: a column read from outside is checked with it first.
func (k ClientColumn) Ascending() bool {
	for i := 1; i < len(k); i++ {
		if k[i-1] >= k[i] {
			return false
		}
	}
	return true
}
