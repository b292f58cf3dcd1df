// Package splitmix is the keyed generator behind the per-target measurement
// streams: probe's noise model and fault's probe-loss stream.
//
// Both streams must be rewound to a position that depends only on the target
// being probed — a row of a sweep is then a pure function of (nonce, attempt,
// target), which per-row quorum and cone-scoped repair are built on — and a
// campaign rewinds once per probed target, hundreds of thousands of times.
// splitmix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014) keeps its whole state in one word, so rewinding
// is one store, where math/rand's default source refills 607 words.
//
// The package draws no entropy of its own: every output is a function of the
// key its caller derives from explicit seeds.
package splitmix

// Gamma is splitmix64's state increment, the odd integer nearest 2⁶⁴/φ.
const Gamma = 0x9e3779b97f4a7c15

// Mix is splitmix64's output finalizer: a bijection on 64-bit words in which
// every input bit affects every output bit. Callers fold seeds and
// identities into stream keys with it.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a splitmix64 generator. It implements math/rand's Source64, so a
// *rand.Rand over it supplies Float64, NormFloat64 and Int63n; Rekey may be
// called between any two draws of that Rand, which buffers nothing for them.
// The zero value is the generator keyed with 0. Not safe for concurrent use.
type Source struct {
	state uint64
}

// Rekey moves the generator to the start of the stream named by key.
func (s *Source) Rekey(key uint64) { s.state = key }

// Seed implements rand.Source as Rekey.
func (s *Source) Seed(seed int64) { s.Rekey(uint64(seed)) }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.state += Gamma
	return Mix(s.state)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }
