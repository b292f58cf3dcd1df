//go:build !race

package reconcile_test

// raceRepairAllocs is what the race detector's instrumentation adds to one
// repair's allocation count; it is off.
const raceRepairAllocs = 0
