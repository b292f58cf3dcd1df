package netproto

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IP protocol numbers used by the measurement plane.
const (
	ProtoICMP = 1
	ProtoGRE  = 47
)

// IPv4HeaderLen is the length of a header without options; we never emit
// options.
const IPv4HeaderLen = 20

// IPv4 is an IPv4 header (RFC 791) without options.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr
}

// Marshal serializes the header followed by payload. TotalLength and the
// header checksum are computed here.
func (h *IPv4) Marshal(payload []byte) ([]byte, error) {
	return h.AppendMarshal(nil, payload)
}

// AppendMarshal appends the serialized header followed by payload to buf and
// returns the extended slice, letting hot paths reuse one packet buffer
// across probes instead of allocating per packet.
func (h *IPv4) AppendMarshal(buf, payload []byte) ([]byte, error) {
	if !h.Src.Is4() || !h.Dst.Is4() {
		return nil, fmt.Errorf("netproto: IPv4 marshal requires 4-byte addresses (src=%v dst=%v)", h.Src, h.Dst)
	}
	total := IPv4HeaderLen + len(payload)
	if total > 0xffff {
		return nil, fmt.Errorf("netproto: IPv4 packet too large: %d bytes", total)
	}
	buf = grow(buf, total)
	b := buf[len(buf)-total:]
	b[0] = 4<<4 | IPv4HeaderLen/4 // version + IHL
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(total))
	binary.BigEndian.PutUint16(b[4:], h.ID)
	frag := uint16(h.Flags&0x7)<<13 | h.FragOff&0x1fff
	binary.BigEndian.PutUint16(b[6:], frag)
	b[8] = h.TTL
	b[9] = h.Protocol
	src := h.Src.As4()
	dst := h.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint16(b[10:], Checksum(b[:IPv4HeaderLen]))
	copy(b[IPv4HeaderLen:], payload)
	return buf, nil
}

// ParseIPv4 parses an IPv4 packet, returning the header and its payload
// (sliced from data, not copied).
func ParseIPv4(data []byte) (*IPv4, []byte, error) {
	h := new(IPv4)
	payload, err := h.Unmarshal(data)
	if err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}

// Unmarshal parses an IPv4 packet into h — which may live on the caller's
// stack, avoiding ParseIPv4's allocation — and returns the payload (sliced
// from data, not copied).
func (h *IPv4) Unmarshal(data []byte) ([]byte, error) {
	if len(data) < IPv4HeaderLen {
		return nil, fmt.Errorf("netproto: IPv4 packet truncated: %d bytes", len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("netproto: IP version %d, want 4", v)
	}
	ihl := int(data[0]&0xf) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return nil, fmt.Errorf("netproto: bad IHL %d", ihl)
	}
	if !VerifyChecksum(data[:ihl]) {
		return nil, fmt.Errorf("netproto: IPv4 header checksum mismatch")
	}
	total := int(binary.BigEndian.Uint16(data[2:]))
	if total < ihl || total > len(data) {
		return nil, fmt.Errorf("netproto: total length %d out of range (%d bytes available)", total, len(data))
	}
	// Field by field: a composite literal stored through h is built in a
	// temporary and copied, which costs about a fifth of the parse.
	frag := binary.BigEndian.Uint16(data[6:])
	h.TOS = data[1]
	h.ID = binary.BigEndian.Uint16(data[4:])
	h.Flags = uint8(frag >> 13)
	h.FragOff = frag & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Src = netip.AddrFrom4([4]byte(data[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	return data[ihl:total], nil
}

// grow extends b by n bytes (zeroing nothing; callers overwrite the region)
// and returns the extended slice.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*(len(b)+n))
	copy(nb, b)
	return nb
}
