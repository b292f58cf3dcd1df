package netproto

import (
	"encoding/binary"
	"fmt"
	"time"
)

// ICMP message types used by the prober.
const (
	ICMPEchoReply   = 0
	ICMPEchoRequest = 8
)

// icmpEchoHeaderLen is type+code+checksum+id+seq.
const icmpEchoHeaderLen = 8

// ICMPEcho is an ICMP echo request or reply (RFC 792). AnyOpt's prober packs
// a transmit timestamp into the payload (like ping -T) so the orchestrator
// can compute RTT from the echoed copy without keeping per-probe state.
type ICMPEcho struct {
	Type uint8 // ICMPEchoRequest or ICMPEchoReply
	Code uint8
	ID   uint16
	Seq  uint16
	// Payload is the echo data. The prober puts the timestamp in the first
	// 8 bytes; targets echo it untouched.
	Payload []byte
}

// Marshal serializes the message with a computed checksum.
func (m *ICMPEcho) Marshal() []byte {
	return m.AppendMarshal(nil)
}

// AppendMarshal appends the serialized message to buf and returns the
// extended slice; see IPv4.AppendMarshal.
func (m *ICMPEcho) AppendMarshal(buf []byte) []byte {
	n := icmpEchoHeaderLen + len(m.Payload)
	buf = grow(buf, n)
	b := buf[len(buf)-n:]
	b[0] = m.Type
	b[1] = m.Code
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:], m.ID)
	binary.BigEndian.PutUint16(b[6:], m.Seq)
	copy(b[icmpEchoHeaderLen:], m.Payload)
	binary.BigEndian.PutUint16(b[2:], Checksum(b))
	return buf
}

// ParseICMPEcho parses an echo request/reply and verifies its checksum. The
// returned Payload is an independent copy; Unmarshal is the zero-copy
// variant.
func ParseICMPEcho(data []byte) (*ICMPEcho, error) {
	m := new(ICMPEcho)
	if err := m.Unmarshal(data); err != nil {
		return nil, err
	}
	m.Payload = append([]byte(nil), m.Payload...)
	return m, nil
}

// Unmarshal parses an echo request/reply into m — which may live on the
// caller's stack — and verifies its checksum. Payload aliases data: valid
// only while the packet buffer is, so callers that retain it must copy.
func (m *ICMPEcho) Unmarshal(data []byte) error {
	if len(data) < icmpEchoHeaderLen {
		return fmt.Errorf("netproto: ICMP message truncated: %d bytes", len(data))
	}
	if t := data[0]; t != ICMPEchoRequest && t != ICMPEchoReply {
		return fmt.Errorf("netproto: ICMP type %d is not an echo message", t)
	}
	if !VerifyChecksum(data) {
		return fmt.Errorf("netproto: ICMP checksum mismatch")
	}
	// Field by field, as in IPv4.Unmarshal.
	m.Type = data[0]
	m.Code = data[1]
	m.ID = binary.BigEndian.Uint16(data[4:])
	m.Seq = binary.BigEndian.Uint16(data[6:])
	m.Payload = data[icmpEchoHeaderLen:]
	return nil
}

// Reply builds the echo reply for a request, echoing ID, Seq, and payload.
func (m *ICMPEcho) Reply() *ICMPEcho {
	return &ICMPEcho{
		Type:    ICMPEchoReply,
		Code:    0,
		ID:      m.ID,
		Seq:     m.Seq,
		Payload: append([]byte(nil), m.Payload...),
	}
}

// timestampLen is the number of payload bytes carrying the probe timestamp.
const timestampLen = 8

// EncodeTimestamp writes a virtual-time timestamp into the first bytes of an
// echo payload, allocating the payload if needed.
func (m *ICMPEcho) EncodeTimestamp(t time.Duration) {
	if len(m.Payload) < timestampLen {
		m.Payload = make([]byte, timestampLen)
	}
	binary.BigEndian.PutUint64(m.Payload, uint64(t))
}

// DecodeTimestamp reads the timestamp a probe carried.
func (m *ICMPEcho) DecodeTimestamp() (time.Duration, error) {
	if len(m.Payload) < timestampLen {
		return 0, fmt.Errorf("netproto: echo payload too short for timestamp: %d bytes", len(m.Payload))
	}
	return time.Duration(binary.BigEndian.Uint64(m.Payload)), nil
}
