// Package publish holds a value that any number of goroutines read without
// locks while one writer at a time replaces it, together with the generation
// that numbers each replacement.
//
// Both halves are unexported and Publish is the only method that writes
// them, so outside this package a store that skips its generation, a second
// write point beside Publish or a bumped counter does not compile. The atomic
// fields carry sync/atomic's no-copy marker, so a Cell copied by value is go
// vet's copylocks finding.
package publish

import "sync/atomic"

// Cell publishes successive values of *T. The zero Cell is ready to use and
// holds nil until the first Publish.
type Cell[T any] struct {
	v   atomic.Pointer[T]
	gen atomic.Uint64
}

// Load returns the most recently published value, or nil before the first
// Publish. It is safe from any number of goroutines, concurrently with
// Publish.
func (c *Cell[T]) Load() *T { return c.v.Load() }

// Publish takes the next generation (1 for the first publication), builds the
// value for it, stores it and returns it. A concurrent Load sees the previous
// value or the complete new one, never a mix. Callers serialize Publish:
// two racing writers could store their generations out of order.
func (c *Cell[T]) Publish(build func(gen uint64) *T) *T {
	v := build(c.gen.Add(1))
	c.v.Store(v)
	return v
}
