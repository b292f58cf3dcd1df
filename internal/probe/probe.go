// Package probe is the measurement plane: a Verfploeter-style prober
// (§3.1–3.2) that discovers anycast catchments and measures client↔site RTTs
// with real ICMP/GRE/IPv4 packets carried over the simulated Internet.
//
// Two probe forms exist, matching the paper:
//
//   - Catchment probe: the orchestrator sends an ICMP echo request to a
//     target with the *anycast address as source*. The target's reply is
//     routed by BGP to its catchment site, whose GRE tunnel returns it to
//     the orchestrator; the tunnel key identifies the catchment.
//
//   - RTT probe: the request is first tunneled to a chosen site and emitted
//     there, carrying a transmit timestamp. The orchestrator subtracts the
//     separately measured tunnel RTT from the echo delay to obtain the
//     site↔target RTT. Seven attempts are made and the median taken; at
//     least three valid replies are required (§3.1). These, and the 10 ms
//     gap between transmissions, are constants: the protocol is the
//     paper's, and Config only addresses the prober.
package probe

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"anyopt/internal/netproto"
	"anyopt/internal/splitmix"
)

// ErrLost marks a probe lost in transit.
var ErrLost = errors.New("probe: packet lost")

// ErrUnreachable marks a target with no route to (or from) the prefix.
var ErrUnreachable = errors.New("probe: no route")

// Fabric delivers a probe packet and returns the reply as received at the
// orchestrator. req is the raw packet the orchestrator emits: either an
// IPv4(ICMP) probe sent directly, or IPv4(GRE(IPv4(ICMP))) tunneled via a
// site. The reply is always IPv4(GRE(IPv4(ICMP))) — anycast replies come
// back through a site tunnel. sentAt is the virtual transmit time; recvAt is
// the virtual receive time.
type Fabric interface {
	Probe(req []byte, sentAt time.Duration) (resp []byte, recvAt time.Duration, err error)
}

// The paper's probe protocol (§3.1): an RTT measurement sends rttAttempts
// echo requests and needs at least minValid replies for a usable median.
// Successive transmissions are probeGap apart in virtual time.
const (
	rttAttempts = 7
	minValid    = 3
	probeGap    = 10 * time.Millisecond
)

// Config addresses a Prober.
type Config struct {
	// OrchAddr is the orchestrator's unicast address (outer tunnel source).
	OrchAddr netip.Addr
	// AnycastAddr is the anycast address used as probe source.
	AnycastAddr netip.Addr
}

// DefaultConfig returns the Config for an orchestrator and anycast address.
func DefaultConfig(orch, anycast netip.Addr) Config {
	return Config{OrchAddr: orch, AnycastAddr: anycast}
}

// Prober issues measurement probes over a Fabric.
type Prober struct {
	cfg    Config
	fabric Fabric
	clock  time.Duration
	seq    uint16
	id     uint16

	// Sent and Received count probes for reporting.
	Sent, Received uint64

	// Scratch reused across probes: packets are built append-style and
	// parsed with the zero-copy Unmarshal variants, so steady-state probing
	// allocates nothing per packet. Probers are single-goroutine, like the
	// experiments that own them.
	tsBuf   [8]byte
	echoBuf []byte
	pktBuf  []byte
	greBuf  []byte
	reqBuf  []byte
	samples []time.Duration
}

// New creates a prober. The virtual clock starts at start.
func New(fabric Fabric, cfg Config, start time.Duration) *Prober {
	return &Prober{cfg: cfg, fabric: fabric, clock: start, id: 0x4f50 /* "OP" */}
}

// TargetSeeder is implemented by fabrics (and fault models) whose random
// streams can be rewound to a per-target position, making each target's
// measurement independent of probe order.
type TargetSeeder interface {
	BeginTarget(id uint64)
}

// BeginTarget marks the start of probing one target, rewinding the fabric's
// noise/fault streams to that target's position if the fabric supports it.
// Callers that probe a subset of targets rely on this for reproducibility
// against a full sweep.
func (p *Prober) BeginTarget(id uint64) {
	if ts, ok := p.fabric.(TargetSeeder); ok {
		ts.BeginTarget(id)
	}
}

// buildEcho constructs the inner IPv4(ICMP echo request) with the anycast
// source address and a transmit timestamp. The returned packet aliases the
// prober's scratch buffer, valid until the next buildEcho call.
func (p *Prober) buildEcho(dst netip.Addr) ([]byte, error) {
	p.seq++
	echo := netproto.ICMPEcho{Type: netproto.ICMPEchoRequest, ID: p.id, Seq: p.seq, Payload: p.tsBuf[:]}
	echo.EncodeTimestamp(p.clock)
	p.echoBuf = echo.AppendMarshal(p.echoBuf[:0])
	inner := netproto.IPv4{
		TTL: 64, Protocol: netproto.ProtoICMP,
		Src: p.cfg.AnycastAddr, Dst: dst,
	}
	var err error
	p.pktBuf, err = inner.AppendMarshal(p.pktBuf[:0], p.echoBuf)
	if err != nil {
		return nil, err
	}
	return p.pktBuf, nil
}

// parseReply unwraps IPv4(GRE(IPv4(ICMP echo reply))) and returns the tunnel
// key and the echoed timestamp.
func (p *Prober) parseReply(resp []byte) (key uint32, ts time.Duration, err error) {
	// Headers live on the stack and payloads alias resp: parsing a reply
	// costs no allocations.
	var outer netproto.IPv4
	grePayload, err := outer.Unmarshal(resp)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: outer header: %w", err)
	}
	if outer.Protocol != netproto.ProtoGRE {
		return 0, 0, fmt.Errorf("probe: reply protocol %d, want GRE", outer.Protocol)
	}
	if outer.Dst != p.cfg.OrchAddr {
		return 0, 0, fmt.Errorf("probe: reply delivered to %v, want orchestrator %v", outer.Dst, p.cfg.OrchAddr)
	}
	var gre netproto.GRE
	ipPayload, err := gre.Unmarshal(grePayload)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: GRE: %w", err)
	}
	if !gre.KeyPresent {
		return 0, 0, fmt.Errorf("probe: reply tunnel carries no key")
	}
	var inner netproto.IPv4
	icmpBytes, err := inner.Unmarshal(ipPayload)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: inner header: %w", err)
	}
	if inner.Dst != p.cfg.AnycastAddr {
		return 0, 0, fmt.Errorf("probe: inner reply to %v, want anycast %v", inner.Dst, p.cfg.AnycastAddr)
	}
	var echo netproto.ICMPEcho
	if err := echo.Unmarshal(icmpBytes); err != nil {
		return 0, 0, fmt.Errorf("probe: ICMP: %w", err)
	}
	if echo.Type != netproto.ICMPEchoReply {
		return 0, 0, fmt.Errorf("probe: ICMP type %d, want echo reply", echo.Type)
	}
	ts, err = echo.DecodeTimestamp()
	if err != nil {
		return 0, 0, err
	}
	return gre.Key, ts, nil
}

// Catchment sends one catchment probe to dst and returns the tunnel key of
// the site the reply came back through.
func (p *Prober) Catchment(dst netip.Addr) (uint32, error) {
	req, err := p.buildEcho(dst)
	if err != nil {
		return 0, err
	}
	p.Sent++
	sentAt := p.clock
	p.clock += probeGap
	resp, recvAt, err := p.fabric.Probe(req, sentAt)
	if err != nil {
		return 0, err
	}
	p.Received++
	if recvAt > p.clock {
		p.clock = recvAt
	}
	key, _, err := p.parseReply(resp)
	return key, err
}

// CatchmentRetry probes up to attempts times, tolerating loss.
func (p *Prober) CatchmentRetry(dst netip.Addr, attempts int) (uint32, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		key, err := p.Catchment(dst)
		if err == nil {
			return key, nil
		}
		lastErr = err
		if errors.Is(err, ErrUnreachable) {
			break // retries won't help
		}
	}
	return 0, lastErr
}

// RTT measures the round-trip time between the site behind tunnelKey and dst
// using the paper's methodology: tunnel the request to the site, echo a
// timestamp, take the median of rttAttempts samples, subtract tunnelRTT.
func (p *Prober) RTT(tunnelKey uint32, siteAddr netip.Addr, tunnelRTT time.Duration, dst netip.Addr) (time.Duration, error) {
	p.samples = p.samples[:0]
	var lastErr error
	for i := 0; i < rttAttempts; i++ {
		inner, err := p.buildEcho(dst)
		if err != nil {
			return 0, err
		}
		gre := netproto.GRE{Protocol: netproto.EtherTypeIPv4, KeyPresent: true, Key: tunnelKey}
		outer := netproto.IPv4{
			TTL: 64, Protocol: netproto.ProtoGRE,
			Src: p.cfg.OrchAddr, Dst: siteAddr,
		}
		p.greBuf = gre.AppendMarshal(p.greBuf[:0], inner)
		p.reqBuf, err = outer.AppendMarshal(p.reqBuf[:0], p.greBuf)
		if err != nil {
			return 0, err
		}
		req := p.reqBuf
		p.Sent++
		sentAt := p.clock
		p.clock += probeGap
		resp, recvAt, err := p.fabric.Probe(req, sentAt)
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrUnreachable) {
				break
			}
			continue
		}
		p.Received++
		if recvAt > p.clock {
			p.clock = recvAt
		}
		_, ts, err := p.parseReply(resp)
		if err != nil {
			lastErr = err
			continue
		}
		p.samples = append(p.samples, recvAt-ts)
	}
	if len(p.samples) < minValid {
		if lastErr == nil {
			lastErr = ErrLost
		}
		return 0, fmt.Errorf("probe: only %d of %d samples valid: %w", len(p.samples), rttAttempts, lastErr)
	}
	// The scratch slice's sample order is never reused.
	rtt := median(p.samples) - tunnelRTT
	if rtt < 0 {
		rtt = 0
	}
	return rtt, nil
}

// median sorts samples in place and returns their median (the lower middle
// for even counts).
func median(samples []time.Duration) time.Duration {
	slices.Sort(samples)
	return samples[(len(samples)-1)/2]
}

// FaultModel injects deterministic measurement-plane faults on top of the
// baseline noise. internal/fault's Injector implements it; the indirection
// keeps this package free of a fault dependency.
type FaultModel interface {
	// DropProbe reports whether the next packet traversal is lost.
	DropProbe() bool
	// SiteDead reports whether a site is blacked out: its tunnel endpoint
	// answers nothing and replies reaching it die there.
	SiteDead(siteID int) bool
}

// NoiseModel injects measurement noise into path delays, as the real
// Internet would. Its draws come from a one-word keyed generator under a
// *rand.Rand, so rewinding the stream for a target is a single store.
type NoiseModel struct {
	src  splitmix.Source
	rng  *rand.Rand // over &src
	seed int64
	// JitterFrac scales multiplicative jitter (|N(0,1)|·frac of the delay).
	JitterFrac float64
	// SpikeProb is the chance of a queuing spike per traversal.
	SpikeProb float64
	// SpikeMax bounds a spike's added delay.
	SpikeMax time.Duration
	// LossProb is the chance a packet is dropped per traversal.
	LossProb float64
}

// NewNoiseModel builds a model with the given seed. Zero-value fractions mean
// a noise-free channel.
func NewNoiseModel(seed int64, jitterFrac, spikeProb float64, spikeMax time.Duration, lossProb float64) *NoiseModel {
	n := &NoiseModel{
		seed:       seed,
		JitterFrac: jitterFrac,
		SpikeProb:  spikeProb,
		SpikeMax:   spikeMax,
		LossProb:   lossProb,
	}
	n.src.Rekey(uint64(seed))
	n.rng = rand.New(&n.src)
	return n
}

// BeginTarget rewinds the noise stream to a position derived only from the
// model's base seed and the given target identity. Draws for one target are
// then independent of which (or how many) other targets were probed before
// it — the property that lets a cone-scoped repair campaign skip targets and
// still reproduce the full campaign's measurements byte-for-byte.
func (n *NoiseModel) BeginTarget(id uint64) {
	if n == nil {
		return
	}
	n.src.Rekey(splitmix.Mix((uint64(n.seed) ^ id) + splitmix.Gamma))
}

// DefaultNoise matches a well-behaved Internet path: ~2% jitter, occasional
// spikes, 1% loss.
func DefaultNoise(seed int64) *NoiseModel {
	return NewNoiseModel(seed, 0.02, 0.02, 25*time.Millisecond, 0.01)
}

// Apply perturbs a one-way delay and reports whether the packet survived.
func (n *NoiseModel) Apply(d time.Duration) (time.Duration, bool) {
	if n == nil {
		return d, true
	}
	if n.LossProb > 0 && n.rng.Float64() < n.LossProb {
		return 0, false
	}
	out := d
	if n.JitterFrac > 0 {
		j := n.rng.NormFloat64()
		if j < 0 {
			j = -j
		}
		out += time.Duration(float64(d) * j * n.JitterFrac)
	}
	if n.SpikeProb > 0 && n.rng.Float64() < n.SpikeProb {
		out += time.Duration(n.rng.Int63n(int64(n.SpikeMax)))
	}
	return out, true
}
