package probe

import (
	"fmt"
	"net/netip"
	"time"

	"anyopt/internal/bgp"
	"anyopt/internal/netproto"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// SimFabric carries probe packets over the simulated Internet: requests leave
// the orchestrator (optionally via a site's GRE tunnel), replies follow the
// BGP forwarding state of the given prefix back to a catchment site and
// return through that site's tunnel.
type SimFabric struct {
	TB     *testbed.Testbed
	Sim    *bgp.Sim
	Prefix bgp.PrefixID
	// Noise perturbs every traversal; nil means a noise-free channel.
	Noise *NoiseModel
	// Fault, when non-nil, injects deterministic measurement-plane faults on
	// top of the baseline noise: extra per-traversal probe loss and
	// blacked-out sites whose tunnels answer nothing.
	Fault FaultModel
	// Capture, when set, records every request and reply the orchestrator
	// sees as raw-IP pcap records at their virtual timestamps — openable in
	// tcpdump/Wireshark for debugging the measurement plane.
	Capture *netproto.PcapWriter

	// Scratch reused across probes for reply assembly; a fabric serves one
	// single-goroutine experiment. The returned reply aliases wireBuf,
	// valid until the next Probe call.
	echoBuf  []byte
	innerBuf []byte
	greBuf   []byte
	wireBuf  []byte

	// lastAddr and lastIndex remember the most recent address resolution:
	// an RTT measurement sends all its probes to one target in a row.
	lastAddr  netip.Addr
	lastIndex int
}

// NewSimFabric builds a fabric for one prefix. Targets are resolved through
// the testbed (Testbed.TargetIndex), with no per-fabric index.
func NewSimFabric(tb *testbed.Testbed, sim *bgp.Sim, prefix bgp.PrefixID, noise *NoiseModel) *SimFabric {
	return &SimFabric{TB: tb, Sim: sim, Prefix: prefix, Noise: noise}
}

// target resolves a probed address to its index in Topo.Targets, searching
// the testbed only when it differs from the previous probe's.
func (f *SimFabric) target(a netip.Addr) (int, bool) {
	if a == f.lastAddr {
		return f.lastIndex, true
	}
	i, ok := f.TB.TargetIndex(a)
	if ok {
		f.lastAddr, f.lastIndex = a, i
	}
	return i, ok
}

// Probe implements Fabric.
func (f *SimFabric) Probe(req []byte, sentAt time.Duration) ([]byte, time.Duration, error) {
	if f.Capture != nil {
		f.Capture.WritePacket(sentAt, req)
	}
	resp, recvAt, err := f.probe(req, sentAt)
	if err == nil && f.Capture != nil {
		f.Capture.WritePacket(recvAt, resp)
	}
	return resp, recvAt, err
}

// probe carries the packet over the simulated Internet. Header structs stay
// on the stack and payloads alias req, so the parse side allocates nothing.
func (f *SimFabric) probe(req []byte, sentAt time.Duration) ([]byte, time.Duration, error) {
	var outer netproto.IPv4
	payload, err := outer.Unmarshal(req)
	if err != nil {
		return nil, 0, fmt.Errorf("probe: malformed request: %w", err)
	}

	var inner netproto.IPv4
	var icmpBytes []byte
	var fwdDelay time.Duration // orchestrator → target
	var ti int                 // the target's index in Topo.Targets
	// The reply's catchment entry. An RTT probe resolves it for its request
	// leg already; nothing touches the sim in between, so it is reused.
	var entryLink topology.LinkID
	var retDelay0 time.Duration
	resolved := false

	switch outer.Protocol {
	case netproto.ProtoGRE:
		// RTT-mode probe: tunneled to a site, emitted there.
		var gre netproto.GRE
		ipPayload, err := gre.Unmarshal(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("probe: request GRE: %w", err)
		}
		if !gre.KeyPresent {
			return nil, 0, fmt.Errorf("probe: tunneled request without key")
		}
		site := f.TB.SiteByTunnelKey(gre.Key)
		if site == nil {
			return nil, 0, fmt.Errorf("probe: unknown tunnel key %d", gre.Key)
		}
		if f.Fault != nil && f.Fault.SiteDead(site.ID) {
			// The site is blacked out: its tunnel endpoint answers nothing,
			// so probing via it can never succeed.
			return nil, 0, ErrUnreachable
		}
		icmpBytes, err = inner.Unmarshal(ipPayload)
		if err != nil {
			return nil, 0, fmt.Errorf("probe: inner request: %w", err)
		}
		var ok bool
		if ti, ok = f.target(inner.Dst); !ok {
			return nil, 0, fmt.Errorf("probe: unknown target %v", inner.Dst)
		}
		// Orchestrator → site over the tunnel, then site → target. The
		// site→target leg mirrors the BGP return path of the reply.
		// CatchmentEntry is Forward on the memoized fast path — the AS path
		// is never needed here.
		entryLink, retDelay0, resolved = f.Sim.CatchmentEntry(f.Prefix, f.TB.Topo.Targets[ti])
		if !resolved || f.TB.SiteByLink(entryLink) == nil {
			return nil, 0, ErrUnreachable
		}
		fwdDelay = site.TunnelRTT/2 + retDelay0

	case netproto.ProtoICMP:
		// Catchment-mode probe: sent directly toward the target.
		inner, icmpBytes = outer, payload
		var ok bool
		if ti, ok = f.target(inner.Dst); !ok {
			return nil, 0, fmt.Errorf("probe: unknown target %v", inner.Dst)
		}
		// Direct unicast leg orchestrator → target.
		fwdDelay = f.TB.OrchLeg(ti)

	default:
		return nil, 0, fmt.Errorf("probe: request protocol %d unsupported", outer.Protocol)
	}

	var echo netproto.ICMPEcho
	if err := echo.Unmarshal(icmpBytes); err != nil {
		return nil, 0, fmt.Errorf("probe: request ICMP: %w", err)
	}
	if echo.Type != netproto.ICMPEchoRequest {
		return nil, 0, fmt.Errorf("probe: request ICMP type %d", echo.Type)
	}

	// Request leg noise and loss.
	fwdDelay, alive := f.noise(fwdDelay)
	if !alive {
		return nil, 0, ErrLost
	}

	// The target replies to the anycast source; BGP routes it to the
	// catchment site.
	if !resolved {
		if entryLink, retDelay0, resolved = f.Sim.CatchmentEntry(f.Prefix, f.TB.Topo.Targets[ti]); !resolved {
			return nil, 0, ErrUnreachable
		}
	}
	site := f.TB.SiteByLink(entryLink)
	if site == nil {
		return nil, 0, fmt.Errorf("probe: reply entered over non-testbed link %d", entryLink)
	}
	if f.Fault != nil && f.Fault.SiteDead(site.ID) {
		// Blacked-out catchment site: the reply dies there instead of
		// returning through the tunnel.
		return nil, 0, ErrUnreachable
	}
	retDelay, alive := f.noise(retDelay0)
	if !alive {
		return nil, 0, ErrLost
	}
	// Site → orchestrator through the GRE tunnel.
	tunnelBack, alive := f.noise(site.TunnelRTT / 2)
	if !alive {
		return nil, 0, ErrLost
	}

	// Assemble the reply exactly as the site router would hand it up:
	// IPv4(orch←site, GRE(key, IPv4(anycast←target, ICMP echo reply))).
	// Built append-style into the fabric's scratch buffers; the echoed
	// payload still aliases req, which stays alive through the copy.
	reply := netproto.ICMPEcho{Type: netproto.ICMPEchoReply, ID: echo.ID, Seq: echo.Seq, Payload: echo.Payload}
	f.echoBuf = reply.AppendMarshal(f.echoBuf[:0])
	replyInner := netproto.IPv4{
		TTL: 60, Protocol: netproto.ProtoICMP,
		Src: inner.Dst, Dst: inner.Src,
	}
	f.innerBuf, err = replyInner.AppendMarshal(f.innerBuf[:0], f.echoBuf)
	if err != nil {
		return nil, 0, err
	}
	ord := site.LinkOrdinal(entryLink)
	if ord < 0 {
		return nil, 0, fmt.Errorf("probe: entry link %d not registered at site %d", entryLink, site.ID)
	}
	gre := netproto.GRE{
		Protocol:   netproto.EtherTypeIPv4,
		KeyPresent: true,
		Key:        testbed.EncodeTunnelKey(site.TunnelKey, ord),
	}
	f.greBuf = gre.AppendMarshal(f.greBuf[:0], f.innerBuf)
	replyOuter := netproto.IPv4{
		TTL: 62, Protocol: netproto.ProtoGRE,
		Src: site.TunnelAddr, Dst: f.TB.OrchAddr,
	}
	f.wireBuf, err = replyOuter.AppendMarshal(f.wireBuf[:0], f.greBuf)
	if err != nil {
		return nil, 0, err
	}
	return f.wireBuf, sentAt + fwdDelay + retDelay + tunnelBack, nil
}

// BeginTarget rewinds the fabric's noise stream — and the fault injector's
// probe-loss stream, when the injected FaultModel supports it — to the
// position derived from the target identity. See Prober.BeginTarget.
func (f *SimFabric) BeginTarget(id uint64) {
	f.Noise.BeginTarget(id)
	if ts, ok := f.Fault.(TargetSeeder); ok {
		ts.BeginTarget(id)
	}
}

// noise perturbs one traversal leg: injected fault loss first, then the
// baseline noise model.
func (f *SimFabric) noise(d time.Duration) (time.Duration, bool) {
	if f.Fault != nil && f.Fault.DropProbe() {
		return 0, false
	}
	if f.Noise == nil {
		return d, true
	}
	return f.Noise.Apply(d)
}
