// Package netproto implements the packet formats AnyOpt's measurement plane
// uses on the wire: IPv4 headers, ICMP echo messages carrying measurement
// timestamps, and GRE encapsulation for the orchestrator↔site tunnels.
//
// The design follows gopacket's layering discipline — each layer marshals
// and parses itself and exposes its payload — but uses only the standard
// library. Probes built here are byte-exact IPv4/ICMP/GRE packets; in the
// simulation they are carried by the bgp forwarding model instead of a NIC.
package netproto

import "encoding/binary"

// Checksum computes the Internet checksum (RFC 1071) over data.
func Checksum(data []byte) uint16 { return ^sum(data) }

// VerifyChecksum reports whether data (which embeds its checksum field)
// checksums to zero, i.e. is internally consistent.
func VerifyChecksum(data []byte) bool { return sum(data) == 0xffff }

// sum is the one's-complement sum of data's big-endian 16-bit words, an odd
// trailing byte padded with zero. It adds 32-bit words into a 64-bit
// accumulator and folds the carries once at the end (RFC 1071 §2, "deferred
// carries"): 2¹⁶ ≡ 1 modulo 0xffff, so a 32-bit word adds the same as its two
// halves, and folding a non-zero sum never yields zero, so the result equals
// the byte-pair loop's on every input.
func sum(data []byte) uint16 {
	var acc uint64
	for len(data) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	for acc > 0xffff {
		acc = acc>>16 + acc&0xffff
	}
	return uint16(acc)
}
