// Package orchestrator is the control plane of the testbed (§3.1): it holds
// a BGP session to every site's router — as the paper's GoBGP instance does
// over GRE tunnels — and turns real, wire-encoded UPDATE messages into
// anycast announcements and withdrawals at the sites.
//
// Which of a site's links (the transit link or a specific peering link) an
// announcement applies to is selected with a BGP community, the way
// production operators steer per-neighbor export policy. The site-router
// side is a small stub that parses the UPDATE, resolves the community to a
// link, and queues the action; Flush applies queued actions to the routing
// simulation in arrival order and converges.
package orchestrator

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anyopt/internal/bgp"
	"anyopt/internal/bgp/speaker"
	"anyopt/internal/bgp/wire"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// communityBase tags announcement-steering communities: the high 16 bits are
// the orchestrator's private ASN, the low 16 bits the link ordinal at the
// receiving site (0 = transit link, i+1 = i-th peering link).
const communityBase = uint32(64512) << 16

// action is one queued routing change decoded by a site router.
type action struct {
	announce bool
	prefix   bgp.PrefixID
	link     topology.LinkID
	prepend  int
}

// SessionChaos decides control-session fault injection for the
// orchestrator. No campaign sets one: campaigns announce straight into
// bgp.Sim, and only this package's tests drive the orchestrator through
// resets.
type SessionChaos interface {
	// ResetSession reports whether the session to the site drops before
	// the next control message is sent.
	ResetSession(siteID int) bool
}

// siteTally tracks one site's control-plane message flow: sent counts
// messages pushed into the session, decoded counts UPDATEs the site router
// has finished processing. Flush waits for them to match and reports the
// difference per site when they don't.
type siteTally struct {
	sent, decoded atomic.Uint64
}

// Orchestrator manages the BGP control plane toward every site.
type Orchestrator struct {
	TB  *testbed.Testbed
	Sim *bgp.Sim

	// Chaos, when non-nil, injects control-session resets before sends;
	// the orchestrator self-heals by re-establishing the session.
	// SessionResets counts how many times it did.
	Chaos         SessionChaos
	SessionResets int

	mu       sync.Mutex
	sessions map[int]*speaker.Session
	tallies  map[int]*siteTally
	queue    []action
	routers  sync.WaitGroup

	// sent counts control messages pushed into sessions; decoded counts
	// UPDATEs the site routers have finished processing. Flush waits for
	// them to match.
	sent, decoded atomic.Uint64

	// Prefixes maps anycast prefix index → routable prefix. Built from the
	// testbed's anycast addresses as /24s.
	Prefixes []netip.Prefix
}

// New wires up an orchestrator with one in-process BGP session per site. The
// sessions run over synchronous pipes, exchanging genuine RFC 4271 bytes.
func New(tb *testbed.Testbed, sim *bgp.Sim) (*Orchestrator, error) {
	o := &Orchestrator{
		TB:       tb,
		Sim:      sim,
		sessions: make(map[int]*speaker.Session, len(tb.Sites)),
		tallies:  make(map[int]*siteTally, len(tb.Sites)),
	}
	for _, site := range tb.Sites {
		o.tallies[site.ID] = &siteTally{}
	}
	for _, addr := range tb.AnycastAddrs {
		o.Prefixes = append(o.Prefixes, netip.PrefixFrom(addr, 24).Masked())
	}
	for _, site := range tb.Sites {
		if err := o.connectSite(site); err != nil {
			o.Close()
			return nil, err
		}
	}
	return o, nil
}

// connectSite establishes the orchestrator↔site session and starts the site
// router stub.
func (o *Orchestrator) connectSite(site *testbed.Site) error {
	orchConn, siteConn := net.Pipe()

	type res struct {
		s   *speaker.Session
		err error
	}
	ch := make(chan res, 2)
	go func() {
		s, err := speaker.Establish(speaker.Config{
			AS: 64512, RouterID: 1, HoldTime: 30 * time.Second,
		}, orchConn)
		ch <- res{s, err}
	}()
	go func() {
		s, err := speaker.Establish(speaker.Config{
			AS: 64512 + uint16(site.ID), RouterID: uint32(site.ID), HoldTime: 30 * time.Second,
		}, siteConn)
		ch <- res{s, err}
	}()
	r1, r2 := <-ch, <-ch
	if r1.err != nil {
		return fmt.Errorf("orchestrator: site %d session: %w", site.ID, r1.err)
	}
	if r2.err != nil {
		return fmt.Errorf("orchestrator: site %d session: %w", site.ID, r2.err)
	}
	orchSess, siteSess := r1.s, r2.s
	if orchSess.PeerAS() == 64512 {
		orchSess, siteSess = siteSess, orchSess
	}
	o.mu.Lock()
	o.sessions[site.ID] = orchSess
	o.mu.Unlock()

	o.routers.Add(1)
	go o.siteRouter(site, siteSess)
	return nil
}

// ResetSite tears down the control session to a site and re-establishes it —
// the self-healing response to an injected (or real) session drop. Messages
// already decoded are unaffected; the caller sends on the fresh session.
func (o *Orchestrator) ResetSite(siteID int) error {
	site := o.TB.Site(siteID)
	if site == nil {
		return fmt.Errorf("orchestrator: unknown site %d", siteID)
	}
	o.mu.Lock()
	sess := o.sessions[siteID]
	delete(o.sessions, siteID)
	o.mu.Unlock()
	if sess != nil {
		sess.Close()
	}
	return o.connectSite(site)
}

// siteRouter is the stub running "at" a site: it consumes UPDATE messages
// from the orchestrator and queues the corresponding routing actions.
func (o *Orchestrator) siteRouter(site *testbed.Site, sess *speaker.Session) {
	defer o.routers.Done()
	for u := range sess.Updates() {
		o.routeUpdate(site, u)
		o.decoded.Add(1)
		o.tallies[site.ID].decoded.Add(1)
	}
}

// routeUpdate decodes one UPDATE into queued actions.
func (o *Orchestrator) routeUpdate(site *testbed.Site, u *wire.Update) {
	// Withdrawals carry no attributes: withdraw the prefix from every link
	// of this site that currently announces it. (The paper's experiments
	// withdraw per site, not per link.)
	for _, wd := range u.Withdrawn {
		if idx := o.prefixIndex(wd); idx >= 0 {
			o.enqueueWithdraw(site, bgp.PrefixID(idx))
		}
	}
	if u.Attrs == nil {
		return
	}
	ord, prepend := 0, 0
	for _, c := range u.Attrs.Communities {
		if c&0xffff0000 == communityBase {
			ord = int(c & 0xffff)
		}
	}
	// Prepending is conveyed in the AS_PATH itself: the origin ASN repeated
	// k times means k-1 prepends.
	if p := u.Attrs.FlatASPath(); len(p) > 0 {
		prepend = len(p) - 1
	}
	link, ok := site.LinkByOrdinal(ord)
	if !ok {
		return // unknown ordinal: drop, as a router with no matching policy would
	}
	for _, nlri := range u.NLRI {
		idx := o.prefixIndex(nlri)
		if idx < 0 {
			continue
		}
		o.mu.Lock()
		o.queue = append(o.queue, action{
			announce: true, prefix: bgp.PrefixID(idx), link: link, prepend: prepend,
		})
		o.mu.Unlock()
	}
}

func (o *Orchestrator) enqueueWithdraw(site *testbed.Site, prefix bgp.PrefixID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	links := append([]topology.LinkID{site.TransitLink}, site.PeerLinks...)
	for _, l := range links {
		o.queue = append(o.queue, action{announce: false, prefix: prefix, link: l})
	}
}

// prefixIndex resolves an announced prefix to its anycast index, or -1.
func (o *Orchestrator) prefixIndex(p netip.Prefix) int {
	for i, q := range o.Prefixes {
		if p == q {
			return i
		}
	}
	return -1
}

// Announce sends a real UPDATE over the site's BGP session instructing it to
// announce the prefix with the given index over the link with the given
// ordinal (0 = transit), with optional AS-path prepending.
func (o *Orchestrator) Announce(siteID, prefixIdx, linkOrdinal, prepend int) error {
	if err := o.maybeResetSession(siteID); err != nil {
		return err
	}
	sess, site, err := o.session(siteID)
	if err != nil {
		return err
	}
	if prefixIdx < 0 || prefixIdx >= len(o.Prefixes) {
		return fmt.Errorf("orchestrator: prefix index %d out of range", prefixIdx)
	}
	if _, ok := site.LinkByOrdinal(linkOrdinal); !ok {
		return fmt.Errorf("orchestrator: site %d has no link ordinal %d", siteID, linkOrdinal)
	}
	path := make([]uint32, 1+prepend)
	for i := range path {
		path[i] = 64512
	}
	attrs := &wire.PathAttrs{
		Origin:      wire.OriginIGP,
		ASPath:      []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: path}},
		NextHop:     o.TB.OrchAddr,
		Communities: []uint32{communityBase | uint32(linkOrdinal)},
	}
	if err := sess.Announce(o.Prefixes[prefixIdx], attrs); err != nil {
		return err
	}
	o.sent.Add(1)
	o.tallies[siteID].sent.Add(1)
	return nil
}

// maybeResetSession consults the chaos model and, when it fires, drops and
// re-establishes the site's control session before the next send.
func (o *Orchestrator) maybeResetSession(siteID int) error {
	if o.Chaos == nil || !o.Chaos.ResetSession(siteID) {
		return nil
	}
	if err := o.ResetSite(siteID); err != nil {
		return err
	}
	o.SessionResets++
	return nil
}

// Withdraw sends a real withdrawal for the prefix to the site, which removes
// it from all of the site's links.
func (o *Orchestrator) Withdraw(siteID, prefixIdx int) error {
	if err := o.maybeResetSession(siteID); err != nil {
		return err
	}
	sess, _, err := o.session(siteID)
	if err != nil {
		return err
	}
	if prefixIdx < 0 || prefixIdx >= len(o.Prefixes) {
		return fmt.Errorf("orchestrator: prefix index %d out of range", prefixIdx)
	}
	if err := sess.Withdraw(o.Prefixes[prefixIdx]); err != nil {
		return err
	}
	o.sent.Add(1)
	o.tallies[siteID].sent.Add(1)
	return nil
}

func (o *Orchestrator) session(siteID int) (*speaker.Session, *testbed.Site, error) {
	site := o.TB.Site(siteID)
	if site == nil {
		return nil, nil, fmt.Errorf("orchestrator: unknown site %d", siteID)
	}
	o.mu.Lock()
	sess := o.sessions[siteID]
	o.mu.Unlock()
	if sess == nil {
		return nil, nil, fmt.Errorf("orchestrator: no session to site %d", siteID)
	}
	return sess, site, nil
}

// SiteFlushError reports one site's undelivered control messages at flush
// time.
type SiteFlushError struct {
	SiteID  int
	Pending uint64
}

// FlushError is returned by FlushContext when the context expired before
// every sent control message was decoded. Sites lists who still owed
// messages, in site-ID order — nothing is dropped silently.
type FlushError struct {
	Sites []SiteFlushError
}

func (e *FlushError) Error() string {
	var b strings.Builder
	b.WriteString("orchestrator: flush deadline with undelivered messages:")
	for _, s := range e.Sites {
		fmt.Fprintf(&b, " site %d (%d pending)", s.SiteID, s.Pending)
	}
	return b.String()
}

// FlushContext waits for in-flight updates to be decoded, applies all queued
// routing actions in order (spaced by spacing of virtual time), and
// converges the simulation. It returns the number of actions applied.
//
// If ctx expires first, the actions decoded so far are still applied and the
// returned *FlushError lists, per site, how many sent messages were never
// decoded — so a wedged session degrades loudly instead of silently dropping
// withdrawals.
//
// Actions sent to *different* sites between two flushes are decoded by
// independent router goroutines, so their relative order is not guaranteed;
// when announcement order matters (it does — §4.2), announce one step and
// Flush before the next, exactly as the paper's orchestrator waits out its
// six-minute spacing.
func (o *Orchestrator) FlushContext(ctx context.Context, spacing time.Duration) (int, error) {
	// The site routers consume from session channels asynchronously: wait
	// until every sent control message has been decoded.
	var err error
	for o.decoded.Load() < o.sent.Load() {
		if ctx.Err() != nil {
			err = o.pendingError()
			break
		}
		time.Sleep(time.Millisecond)
	}

	o.mu.Lock()
	actions := o.queue
	o.queue = nil
	o.mu.Unlock()

	now := o.Sim.Engine.Now()
	for i, a := range actions {
		at := now + time.Duration(i)*spacing
		if a.announce {
			o.Sim.AnnounceAt(at, a.prefix, o.TB.Origin, a.link, a.prepend)
		} else {
			o.Sim.WithdrawAt(at, a.prefix, a.link)
		}
	}
	o.Sim.Converge()
	return len(actions), err
}

// pendingError snapshots the per-site sent/decoded imbalance as a
// *FlushError, or nil when nothing is owed.
func (o *Orchestrator) pendingError() error {
	ids := make([]int, 0, len(o.tallies))
	for id := range o.tallies {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sites []SiteFlushError
	for _, id := range ids {
		t := o.tallies[id]
		if sent, dec := t.sent.Load(), t.decoded.Load(); sent > dec {
			sites = append(sites, SiteFlushError{SiteID: id, Pending: sent - dec})
		}
	}
	if len(sites) == 0 {
		return nil
	}
	return &FlushError{Sites: sites}
}

// Flush is FlushContext with the historical five-second deadline, dropping
// the error for callers that only need the applied-action count.
func (o *Orchestrator) Flush(spacing time.Duration) int {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n, _ := o.FlushContext(ctx, spacing)
	return n
}

// Close tears down every session.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	ids := make([]int, 0, len(o.sessions))
	for id := range o.sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	sessions := make([]*speaker.Session, 0, len(ids))
	for _, id := range ids {
		sessions = append(sessions, o.sessions[id])
	}
	o.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
	o.routers.Wait()
}
