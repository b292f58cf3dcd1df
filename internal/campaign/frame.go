package campaign

import (
	"encoding/binary"
	"hash/crc32"
)

// Both files this package writes — the checkpoint journal and the saved
// campaign — are a header followed by frames, and this file is the one place
// that knows a frame's layout: [u32 payload length][u32 CRC-32C of the
// payload][payload], both little-endian, where the payload's first byte is
// its type.
const frameHeaderLen = 8

// frameCRC is the CRC-32C of a payload. MakeTable hands back the standard
// library's one Castagnoli table, built on first use — so a process that
// never writes or reads a frame never builds it.
func frameCRC(payload []byte) uint32 {
	return crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
}

// beginFrame starts a frame of the given type at the end of b: a header to
// be filled in by sealFrame, then the type byte.
func beginFrame(b []byte, typ byte) []byte {
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0, typ)
}

// sealFrame fills in the length and CRC of the frame that beginFrame started
// at the start of b and that runs to its end.
func sealFrame(b []byte) {
	payload := b[frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], frameCRC(payload))
}

// frameLen is the payload length a frame header declares.
func frameLen(head []byte) int64 { return int64(binary.LittleEndian.Uint32(head[:4])) }

// frameIntact reports whether payload carries the CRC its header declares.
func frameIntact(head, payload []byte) bool {
	return frameCRC(payload) == binary.LittleEndian.Uint32(head[4:frameHeaderLen])
}

// cutFrame splits the frame at the start of b off the rest: its payload and
// what follows it, or false if the frame runs past the end of b or fails its
// CRC. The payload is a window of b, not a copy.
func cutFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeaderLen {
		return nil, b, false
	}
	n := frameLen(b)
	if n > int64(len(b)-frameHeaderLen) {
		return nil, b, false
	}
	payload = b[frameHeaderLen : frameHeaderLen+n]
	return payload, b[frameHeaderLen+n:], frameIntact(b, payload)
}

// frameReader walks a payload; bad latches on the first short or malformed
// read, after which every read returns zero values.
type frameReader struct {
	b   []byte
	bad bool
}

func (r *frameReader) uvarint() uint64 {
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.bad, w = true, 0
	}
	r.b = r.b[w:]
	return v
}

// varint reads a zig-zag varint (binary.AppendVarint).
func (r *frameReader) varint() int64 {
	v, w := binary.Varint(r.b)
	if w <= 0 {
		r.bad, w = true, 0
	}
	r.b = r.b[w:]
	return v
}

func (r *frameReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, n = true, 0
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// take returns the next n bytes, a window of the payload.
func (r *frameReader) take(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *frameReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *frameReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a u32 element count and checks that the payload still holds
// that many elements of the given width, so that a column is never made
// larger than the bytes it is copied from.
func (r *frameReader) count(width int) int {
	n := uint64(r.u32())
	if n > uint64(len(r.b)/width) {
		r.bad = true
		return 0
	}
	return int(n)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
