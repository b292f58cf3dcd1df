//go:build race

package discovery

// faultLineAllocs is what one fault-trace line may cost a measure call: the
// formatted string, and under the race detector — whose sync.Pool drops
// items at random — sometimes fmt's printer state and the buffer it grows
// as well (2.0–2.1 per line measured).
const faultLineAllocs = 3
