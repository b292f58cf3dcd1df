//go:build !race

package discovery

// faultLineAllocs is what one fault-trace line may cost a measure call: the
// formatted string; fmt's printer state comes from its pool.
const faultLineAllocs = 1
