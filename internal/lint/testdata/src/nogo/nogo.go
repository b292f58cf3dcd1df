// Package nogo is an anyoptlint self-test fixture for the nogo check:
// simulator packages must not spawn goroutines.
package nogo

func spawn(fn func()) {
	go fn() // want "go statement outside a designated goroutine owner"
}
