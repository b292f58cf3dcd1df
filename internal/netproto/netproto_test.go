package netproto

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic worked example from RFC 1071 §3.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	data := []byte{0x01, 0x02, 0x03}
	sum := Checksum(data)
	// Appending the checksum should verify.
	withSum := append(append([]byte{}, 0x01, 0x02, 0x03, 0x00), byte(sum>>8), byte(sum))
	_ = withSum
	if sum == 0 {
		t.Skip("degenerate zero checksum")
	}
}

func TestPropertyChecksumDetectsBitFlips(t *testing.T) {
	f := func(data []byte, idx uint16) bool {
		if len(data) < 4 {
			return true
		}
		// Embed checksum at offset 2 like ICMP does.
		data[2], data[3] = 0, 0
		sum := Checksum(data)
		data[2], data[3] = byte(sum>>8), byte(sum)
		if !VerifyChecksum(data) {
			return false
		}
		// Flip one bit somewhere; verification must fail (single-bit errors
		// are always caught by the ones-complement sum).
		i := int(idx) % len(data)
		data[i] ^= 0x40
		return !VerifyChecksum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestIPv4RoundTrip(t *testing.T) {
	h := &IPv4{
		TOS: 0, ID: 0x1234, TTL: 64, Protocol: ProtoICMP,
		Src: addr("192.0.2.1"), Dst: addr("198.51.100.7"),
	}
	payload := []byte("hello anycast")
	pkt, err := h.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.Protocol != h.Protocol ||
		got.TTL != h.TTL || got.ID != h.ID {
		t.Errorf("header mismatch: %+v vs %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestIPv4RejectsCorruption(t *testing.T) {
	h := &IPv4{TTL: 64, Protocol: ProtoICMP, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")}
	pkt, err := h.Marshal([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pkt[8] ^= 0xff // corrupt TTL; checksum must catch it
	if _, _, err := ParseIPv4(pkt); err == nil {
		t.Error("corrupted header parsed without error")
	}
}

func TestIPv4Errors(t *testing.T) {
	cases := map[string][]byte{
		"truncated": make([]byte, 10),
		"version6":  append([]byte{0x65}, make([]byte, 19)...),
		"bad IHL":   append([]byte{0x41}, make([]byte, 19)...),
	}
	for name, data := range cases {
		if _, _, err := ParseIPv4(data); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	h := &IPv4{Src: addr("::1"), Dst: addr("10.0.0.1")}
	if _, err := h.Marshal(nil); err == nil {
		t.Error("IPv6 source accepted by IPv4 marshal")
	}
	big := &IPv4{Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")}
	if _, err := big.Marshal(make([]byte, 0x10000)); err == nil {
		t.Error("oversize packet accepted")
	}
}

func TestPropertyIPv4RoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, src, dst [4]byte, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		h := &IPv4{TOS: tos, ID: id, TTL: ttl, Protocol: ProtoICMP,
			Src: netip.AddrFrom4(src), Dst: netip.AddrFrom4(dst)}
		pkt, err := h.Marshal(payload)
		if err != nil {
			return false
		}
		got, gotPayload, err := ParseIPv4(pkt)
		if err != nil {
			return false
		}
		return got.TOS == tos && got.ID == id && got.TTL == ttl &&
			got.Src == h.Src && got.Dst == h.Dst && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	m := &ICMPEcho{Type: ICMPEchoRequest, ID: 0xbeef, Seq: 7, Payload: []byte("payload")}
	got, err := ParseICMPEcho(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.ID != m.ID || got.Seq != m.Seq || !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestICMPReplyEchoesEverything(t *testing.T) {
	req := &ICMPEcho{Type: ICMPEchoRequest, ID: 1, Seq: 2, Payload: []byte{9, 9, 9}}
	rep := req.Reply()
	if rep.Type != ICMPEchoReply {
		t.Errorf("reply type = %d", rep.Type)
	}
	if rep.ID != req.ID || rep.Seq != req.Seq || !bytes.Equal(rep.Payload, req.Payload) {
		t.Error("reply did not echo request fields")
	}
	// Mutating the reply payload must not touch the request.
	rep.Payload[0] = 0
	if req.Payload[0] != 9 {
		t.Error("reply aliases request payload")
	}
}

func TestICMPChecksumCatchesCorruption(t *testing.T) {
	m := &ICMPEcho{Type: ICMPEchoRequest, ID: 3, Seq: 4, Payload: []byte("x")}
	b := m.Marshal()
	b[len(b)-1] ^= 0x01
	if _, err := ParseICMPEcho(b); err == nil {
		t.Error("corrupted ICMP parsed without error")
	}
}

func TestICMPRejectsNonEcho(t *testing.T) {
	b := make([]byte, 8)
	b[0] = 3 // destination unreachable
	if _, err := ParseICMPEcho(b); err == nil {
		t.Error("non-echo type accepted")
	}
	if _, err := ParseICMPEcho(b[:4]); err == nil {
		t.Error("truncated ICMP accepted")
	}
}

func TestICMPTimestamp(t *testing.T) {
	m := &ICMPEcho{Type: ICMPEchoRequest}
	ts := 1234567 * time.Microsecond
	m.EncodeTimestamp(ts)
	got, err := m.DecodeTimestamp()
	if err != nil {
		t.Fatal(err)
	}
	if got != ts {
		t.Errorf("timestamp = %v, want %v", got, ts)
	}
	// Must survive marshal → parse → reply.
	rep, err := ParseICMPEcho(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err = rep.Reply().DecodeTimestamp()
	if err != nil {
		t.Fatal(err)
	}
	if got != ts {
		t.Errorf("timestamp after echo = %v, want %v", got, ts)
	}
}

func TestTimestampTooShort(t *testing.T) {
	m := &ICMPEcho{Payload: []byte{1, 2}}
	if _, err := m.DecodeTimestamp(); err == nil {
		t.Error("short payload decoded a timestamp")
	}
}

func TestGRERoundTripWithKey(t *testing.T) {
	g := &GRE{Protocol: EtherTypeIPv4, KeyPresent: true, Key: 42}
	payload := []byte("inner packet")
	got, gotPayload, err := ParseGRE(g.Marshal(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !got.KeyPresent || got.Key != 42 || got.Protocol != EtherTypeIPv4 {
		t.Errorf("GRE mismatch: %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Error("payload mismatch")
	}
}

func TestGRERoundTripNoKey(t *testing.T) {
	g := &GRE{Protocol: EtherTypeIPv4}
	got, payload, err := ParseGRE(g.Marshal([]byte{0xab}))
	if err != nil {
		t.Fatal(err)
	}
	if got.KeyPresent {
		t.Error("key present flag leaked")
	}
	if len(payload) != 1 || payload[0] != 0xab {
		t.Error("payload mismatch")
	}
}

func TestGREErrors(t *testing.T) {
	if _, _, err := ParseGRE([]byte{0x20, 0x00, 0x08}); err == nil {
		t.Error("truncated GRE accepted")
	}
	if _, _, err := ParseGRE([]byte{0x20, 0x00, 0x08, 0x00}); err == nil {
		t.Error("GRE with K bit but no key accepted")
	}
	if _, _, err := ParseGRE([]byte{0x00, 0x01, 0x08, 0x00}); err == nil {
		t.Error("GRE version 1 accepted")
	}
	if _, _, err := ParseGRE([]byte{0x80, 0x00, 0x08, 0x00, 0, 0, 0, 0}); err == nil {
		t.Error("GRE with checksum flag accepted")
	}
}

// TestFullProbeStack exercises the exact encapsulation the orchestrator
// builds: IPv4(GRE(IPv4(ICMP echo request with timestamp))).
func TestFullProbeStack(t *testing.T) {
	echo := &ICMPEcho{Type: ICMPEchoRequest, ID: 77, Seq: 3}
	echo.EncodeTimestamp(42 * time.Millisecond)

	inner := &IPv4{TTL: 64, Protocol: ProtoICMP,
		Src: addr("203.0.113.1"), Dst: addr("10.1.2.3")} // anycast src, target dst
	innerPkt, err := inner.Marshal(echo.Marshal())
	if err != nil {
		t.Fatal(err)
	}

	gre := &GRE{Protocol: EtherTypeIPv4, KeyPresent: true, Key: 5}
	outer := &IPv4{TTL: 64, Protocol: ProtoGRE,
		Src: addr("192.0.2.10"), Dst: addr("192.0.2.20")} // orchestrator → site
	wire, err := outer.Marshal(gre.Marshal(innerPkt))
	if err != nil {
		t.Fatal(err)
	}

	// Site router: strip outer + GRE, forward inner.
	oh, gpkt, err := ParseIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	if oh.Protocol != ProtoGRE {
		t.Fatalf("outer protocol = %d", oh.Protocol)
	}
	g, ipkt, err := ParseGRE(gpkt)
	if err != nil {
		t.Fatal(err)
	}
	if g.Key != 5 {
		t.Errorf("tunnel key = %d", g.Key)
	}
	ih, icmpBytes, err := ParseIPv4(ipkt)
	if err != nil {
		t.Fatal(err)
	}
	if ih.Src != addr("203.0.113.1") {
		t.Errorf("inner src = %v, want anycast address", ih.Src)
	}
	m, err := ParseICMPEcho(icmpBytes)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := m.DecodeTimestamp()
	if err != nil {
		t.Fatal(err)
	}
	if ts != 42*time.Millisecond {
		t.Errorf("timestamp = %v", ts)
	}
}

func BenchmarkProbeMarshal(b *testing.B) {
	echo := &ICMPEcho{Type: ICMPEchoRequest, ID: 77, Seq: 3}
	echo.EncodeTimestamp(42 * time.Millisecond)
	inner := &IPv4{TTL: 64, Protocol: ProtoICMP, Src: addr("203.0.113.1"), Dst: addr("10.1.2.3")}
	for i := 0; i < b.N; i++ {
		pkt, err := inner.Marshal(echo.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		_ = pkt
	}
}

func TestDissectFullStack(t *testing.T) {
	echo := &ICMPEcho{Type: ICMPEchoRequest, ID: 77, Seq: 3}
	echo.EncodeTimestamp(42 * time.Millisecond)
	inner := &IPv4{TTL: 64, Protocol: ProtoICMP, Src: addr("203.0.113.10"), Dst: addr("10.1.2.3")}
	innerPkt, err := inner.Marshal(echo.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	gre := &GRE{Protocol: EtherTypeIPv4, KeyPresent: true, Key: 0x00020005} // site 5, ordinal 2
	outer := &IPv4{TTL: 62, Protocol: ProtoGRE, Src: addr("192.0.2.10"), Dst: addr("192.0.2.1")}
	wire, err := outer.Marshal(gre.Marshal(innerPkt))
	if err != nil {
		t.Fatal(err)
	}
	out := Dissect(wire)
	for _, want := range []string{
		"IPv4 192.0.2.10 → 192.0.2.1",
		"GRE key=131077 (site tunnel 5, ingress ordinal 2)",
		"IPv4 203.0.113.10 → 10.1.2.3",
		"ICMP echo-request id=77 seq=3 t=42ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dissection missing %q:\n%s", want, out)
		}
	}
}

func TestDissectGarbageIsSafe(t *testing.T) {
	for _, pkt := range [][]byte{nil, {1}, make([]byte, 20), []byte("hello world padding pad")} {
		out := Dissect(pkt)
		if out == "" {
			t.Errorf("empty dissection for %x", pkt)
		}
		if !strings.Contains(out, "unparseable") && !strings.Contains(out, "IPv4") {
			t.Errorf("odd dissection: %s", out)
		}
	}
}

func TestDissectUnknownProtocol(t *testing.T) {
	h := &IPv4{TTL: 9, Protocol: 17, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")}
	pkt, err := h.Marshal([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	out := Dissect(pkt)
	if !strings.Contains(out, "payload: 3 bytes (protocol 17)") {
		t.Errorf("dissection:\n%s", out)
	}
}

// TestUnmarshalOverwritesEveryField: the parsers assign a header field by
// field, so a header struct reused across packets must come out of Unmarshal
// exactly as a zero one does — no field left over from the previous packet.
func TestUnmarshalOverwritesEveryField(t *testing.T) {
	echo := ICMPEcho{Type: ICMPEchoRequest, ID: 7, Seq: 9, Payload: []byte{1, 2, 3, 4}}
	ip := IPv4{TTL: 61, Protocol: ProtoICMP, Src: addr("192.0.2.1"), Dst: addr("10.0.0.1")}
	pkt, err := ip.Marshal(echo.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	var fresh IPv4
	want, err := fresh.Unmarshal(pkt)
	if err != nil {
		t.Fatal(err)
	}
	stale := IPv4{TOS: 0xee, ID: 0xeeee, Flags: 7, FragOff: 0x1eee, TTL: 0xee, Protocol: 0xee,
		Src: addr("203.0.113.1"), Dst: addr("203.0.113.2")}
	got, err := stale.Unmarshal(pkt)
	if err != nil || stale != fresh || !bytes.Equal(got, want) {
		t.Errorf("IPv4 reused: %+v, %x (%v); fresh: %+v, %x", stale, got, err, fresh, want)
	}

	var freshEcho ICMPEcho
	if err := freshEcho.Unmarshal(want); err != nil {
		t.Fatal(err)
	}
	staleEcho := ICMPEcho{Type: ICMPEchoReply, Code: 0xee, ID: 0xeeee, Seq: 0xeeee, Payload: []byte{0xee}}
	if err := staleEcho.Unmarshal(want); err != nil || !reflect.DeepEqual(staleEcho, freshEcho) {
		t.Errorf("ICMP echo reused: %+v (%v); fresh: %+v", staleEcho, err, freshEcho)
	}
}
