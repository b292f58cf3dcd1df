package netproto

import (
	"fmt"
	"math/rand"
	"testing"
)

// oracleSum is the byte-pair loop the checksum was first written as: add each
// big-endian 16-bit word into 32 bits, pad an odd trailing byte with zero,
// and fold carries until the sum fits in 16 bits. sum must equal it on every
// input.
func oracleSum(data []byte) uint16 {
	var s uint32
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		s += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		s += uint32(data[n-1]) << 8
	}
	for s > 0xffff {
		s = (s >> 16) + (s & 0xffff)
	}
	return uint16(s)
}

// checkAgainstOracle fails t unless Checksum and VerifyChecksum agree with the
// oracle on data; format and args name the input, formatted only on failure.
func checkAgainstOracle(t *testing.T, data []byte, format string, args ...any) {
	t.Helper()
	want := oracleSum(data)
	if got := Checksum(data); got != ^want {
		t.Fatalf("%s: Checksum = %#04x, oracle %#04x", fmt.Sprintf(format, args...), got, ^want)
	}
	if got := VerifyChecksum(data); got != (want == 0xffff) {
		t.Fatalf("%s: VerifyChecksum = %v, oracle sum %#04x", fmt.Sprintf(format, args...), got, want)
	}
}

// TestChecksumMatchesOracle covers every length from 0 to 1,600 bytes — past
// an Ethernet MTU — at every start offset modulo 8, over all-0x00 and
// all-0xff buffers (the extremes of carry propagation: none, and a carry out
// of every word) and a random one.
func TestChecksumMatchesOracle(t *testing.T) {
	const maxLen, maxOff = 1600, 7
	random := make([]byte, maxLen+maxOff)
	rand.New(rand.NewSource(1)).Read(random)
	bufs := map[string][]byte{
		"0x00":   make([]byte, maxLen+maxOff),
		"0xff":   make([]byte, maxLen+maxOff),
		"random": random,
	}
	for i := range bufs["0xff"] {
		bufs["0xff"][i] = 0xff
	}
	for name, buf := range bufs {
		for off := 0; off <= maxOff; off++ {
			for n := 0; n <= maxLen; n++ {
				checkAgainstOracle(t, buf[off:off+n], "%s, offset %d, length %d", name, off, n)
			}
		}
	}
}

// FuzzChecksum checks Checksum and VerifyChecksum against the oracle on any
// bytes at any start offset, and that a checksum written into its field
// verifies.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint8(0)) // RFC 1071 §3
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1))
	f.Add([]byte{0x45, 0x00, 0x00, 0x54, 0x00, 0x00, 0x00, 0x00, 0x40, 0x01,
		0x00, 0x00, 0xc0, 0x00, 0x02, 0x01, 0xcb, 0x00, 0x71, 0x0a}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		data = data[int(off)%(len(data)+1):]
		checkAgainstOracle(t, data, "% x", data)
		if len(data) >= 4 {
			// Embed the checksum at offset 2, as ICMP does.
			pkt := append([]byte(nil), data...)
			pkt[2], pkt[3] = 0, 0
			c := Checksum(pkt)
			pkt[2], pkt[3] = byte(c>>8), byte(c)
			if !VerifyChecksum(pkt) {
				t.Fatalf("checksum %#04x written into % x does not verify", c, pkt)
			}
		}
	})
}

// BenchmarkChecksum times Checksum on an ICMP echo request carrying a
// timestamp (16 bytes), an IPv4 header (20) and an Ethernet-MTU packet
// (1,500).
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{16, 20, 1500} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			var s uint16
			for i := 0; i < b.N; i++ {
				s += Checksum(data)
			}
			sink = s
		})
	}
}

var sink uint16
