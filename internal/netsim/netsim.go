// Package netsim provides an in-process network simulator used as the
// evaluation substrate for the Instant GridFTP reproduction.
//
// A Network holds named hosts connected by links with configurable
// bandwidth, round-trip time, and packet-loss rate. Connections obtained
// from Network.Dial / Listener.Accept implement net.Conn (including
// deadlines, so crypto/tls works on top of them) and are shaped according
// to a simple but well-established TCP throughput model:
//
//   - each stream is capped at window/RTT (window-limited TCP),
//   - on lossy links each stream is additionally capped by the Mathis
//     formula MSS/RTT * C/sqrt(loss),
//   - all streams crossing a link share its aggregate bandwidth,
//   - every byte is delivered no earlier than one-way latency (RTT/2)
//     after it was written, so request/response exchanges pay full RTTs.
//
// This preserves the phenomena the paper's claims rest on — parallel TCP
// streams outperforming a single stream on lossy high-RTT paths, and
// per-command RTT costs dominating lots-of-small-files workloads — while
// remaining deterministic enough for tests and benchmarks.
package netsim

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"
)

// mathisC is the constant of the Mathis et al. TCP throughput upper bound
// rate <= MSS/RTT * C/sqrt(p).
const mathisC = 1.22

// LinkParams describes one (bidirectional) link between two hosts.
type LinkParams struct {
	// Bandwidth is the aggregate link capacity in bytes per second,
	// shared by all streams crossing the link. Zero means unshaped.
	Bandwidth float64
	// RTT is the round-trip time across the link.
	RTT time.Duration
	// Loss is the packet loss probability (e.g. 0.001 = 0.1%). It caps
	// per-stream throughput via the Mathis formula; it does not corrupt
	// data, mirroring TCP's reliable delivery.
	Loss float64
	// MSS is the segment size used by the loss model. Defaults to 1460.
	MSS int
	// StreamWindow is the maximum TCP window per stream in bytes; it caps
	// a single stream at StreamWindow/RTT. Defaults to 64 KiB (the classic
	// untuned-host window the paper's parallel streams compensate for).
	StreamWindow int
}

func (p LinkParams) mss() int {
	if p.MSS <= 0 {
		return 1460
	}
	return p.MSS
}

func (p LinkParams) window() int {
	if p.StreamWindow <= 0 {
		return 64 * 1024
	}
	return p.StreamWindow
}

// StreamCap returns the per-stream throughput ceiling in bytes/sec implied
// by the window and loss model (not counting shared-bandwidth contention).
// It returns +Inf for an unshaped link.
func (p LinkParams) StreamCap() float64 {
	cap := math.Inf(1)
	if p.RTT > 0 {
		cap = float64(p.window()) / p.RTT.Seconds()
		if p.Loss > 0 {
			mathis := float64(p.mss()) / p.RTT.Seconds() * mathisC / math.Sqrt(p.Loss)
			if mathis < cap {
				cap = mathis
			}
		}
	}
	if p.Bandwidth > 0 && p.Bandwidth < cap {
		cap = p.Bandwidth
	}
	return cap
}

// Network is a collection of simulated hosts and links.
type Network struct {
	mu          sync.Mutex
	hosts       map[string]*Host
	links       map[linkKey]*link
	defaultLink LinkParams // applied between hosts with no explicit link
	loopback    LinkParams // applied to same-host connections
}

type linkKey struct{ a, b string }

func keyFor(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// NewNetwork creates an empty network. Hosts with no explicit link between
// them communicate over an unshaped (infinite, zero-latency) default link
// until SetDefaultLink is called.
func NewNetwork() *Network {
	return &Network{
		hosts: make(map[string]*Host),
		links: make(map[linkKey]*link),
	}
}

// SetDefaultLink sets the link parameters used between host pairs that have
// no explicit link configured.
func (n *Network) SetDefaultLink(p LinkParams) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultLink = p
}

// SetLink configures the link between hosts a and b (in both directions).
// If the link already exists it is reshaped in place: live connections see
// the new bandwidth, RTT, loss, and window on their next write, which makes
// repeated SetLink calls a mid-transfer degradation injector (e.g. spiking
// Loss to starve a stream and trip the stall watchdog).
func (n *Network) SetLink(a, b string, p LinkParams) {
	n.mu.Lock()
	lk, ok := n.links[keyFor(a, b)]
	if !ok {
		n.links[keyFor(a, b)] = newLink(p)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	lk.updateParams(p)
}

// Host returns the named host, creating it on first use.
func (n *Network) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hostLocked(name)
}

func (n *Network) hostLocked(name string) *Host {
	h, ok := n.hosts[name]
	if !ok {
		h = &Host{net: n, name: name, listeners: make(map[int]*listener)}
		n.hosts[name] = h
	}
	return h
}

// linkBetween returns the shaping state for the a<->b path.
func (n *Network) linkBetween(a, b string) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if a == b {
		k := linkKey{a, a}
		l, ok := n.links[k]
		if !ok {
			l = newLink(n.loopback)
			n.links[k] = l
		}
		return l
	}
	k := keyFor(a, b)
	l, ok := n.links[k]
	if !ok {
		l = newLink(n.defaultLink)
		n.links[k] = l
	}
	return l
}

// Listen starts a listener on host:port. Port 0 picks a free port.
func (n *Network) Listen(host string, port int) (net.Listener, error) {
	return n.Host(host).Listen(port)
}

// CutLink severs the path between a and b: every live connection crossing
// it is aborted (both ends see hard errors, like a fiber cut) and new
// dials fail until RestoreLink. The fault-injection experiments use this
// to exercise network-level (as opposed to storage-level) failures.
func (n *Network) CutLink(a, b string) {
	n.linkBetween(a, b).cut()
}

// RestoreLink brings a previously cut link back up.
func (n *Network) RestoreLink(a, b string) {
	n.linkBetween(a, b).restore()
}

// LinkStats returns the observability counters of the a<->b link (created
// on first use, like linkBetween).
func (n *Network) LinkStats(a, b string) LinkStats {
	return n.linkBetween(a, b).statsSnapshot()
}

// Dial connects from one host to "otherhost:port".
func (n *Network) Dial(fromHost, target string) (net.Conn, error) {
	return n.Host(fromHost).Dial(target)
}

// Host is one simulated machine. It can listen on ports and dial other
// hosts.
type Host struct {
	net       *Network
	name      string
	mu        sync.Mutex
	listeners map[int]*listener
	nextPort  int
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Listen opens a listening socket on the given port (0 = auto-assign).
func (h *Host) Listen(port int) (net.Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port == 0 {
		if h.nextPort == 0 {
			h.nextPort = 40000
		}
		for {
			h.nextPort++
			if _, busy := h.listeners[h.nextPort]; !busy {
				port = h.nextPort
				break
			}
		}
	}
	if _, busy := h.listeners[port]; busy {
		return nil, &net.OpError{Op: "listen", Net: "sim", Addr: addr{h.name, port}, Err: errAddrInUse}
	}
	l := &listener{
		host:    h,
		port:    port,
		backlog: make(chan net.Conn, 64),
		done:    make(chan struct{}),
	}
	h.listeners[port] = l
	return l, nil
}

// Transport selects the per-stream throughput model of a connection.
type Transport int

const (
	// TransportTCP (default): per-stream throughput is window-limited
	// (window/RTT) and loss-limited (Mathis bound).
	TransportTCP Transport = iota
	// TransportUDT models a rate-based protocol (UDT [Gu & Grossman]):
	// the stream is bounded only by the link bandwidth — neither the TCP
	// window nor the loss-rate bound applies. GridFTP reaches such
	// protocols through its XIO driver interface (paper §II.A [9]).
	TransportUDT
)

// Dial connects to "host:port" over the simulated network.
func (h *Host) Dial(target string) (net.Conn, error) {
	return h.DialContext(context.Background(), target)
}

// DialTransport connects with an explicit transport model.
func (h *Host) DialTransport(target string, tr Transport) (net.Conn, error) {
	return h.dialContext(context.Background(), target, tr)
}

// DialContext connects to "host:port", honoring ctx cancellation while the
// connection is being established (including the simulated handshake RTT).
func (h *Host) DialContext(ctx context.Context, target string) (net.Conn, error) {
	return h.dialContext(ctx, target, TransportTCP)
}

func (h *Host) dialContext(ctx context.Context, target string, tr Transport) (net.Conn, error) {
	thost, tport, err := splitHostPort(target)
	if err != nil {
		return nil, err
	}
	h.net.mu.Lock()
	peer, ok := h.net.hosts[thost]
	h.net.mu.Unlock()
	if !ok {
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: addr{thost, tport}, Err: errHostUnreachable}
	}
	peer.mu.Lock()
	l, ok := peer.listeners[tport]
	peer.mu.Unlock()
	if !ok {
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: addr{thost, tport}, Err: errConnRefused}
	}
	lk := h.net.linkBetween(h.name, thost)
	if lk.isDown() {
		lk.stats.drops.Add(1)
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: addr{thost, tport}, Err: errHostUnreachable}
	}
	// TCP connection establishment costs one RTT before data can flow.
	if rtt := lk.getParams().RTT; rtt > 0 {
		t := leaseTimer(rtt)
		select {
		case <-t.C:
		case <-ctx.Done():
			releaseTimer(t)
			return nil, ctx.Err()
		}
		releaseTimer(t)
	}
	local, remote := newConnPair(lk, tr, addr{h.name, ephemeralPort()}, addr{thost, tport})
	if !lk.register(local) {
		local.Close()
		remote.Close()
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: addr{thost, tport}, Err: errHostUnreachable}
	}
	select {
	case l.backlog <- remote:
		return local, nil
	case <-l.done:
		local.Close()
		remote.Close()
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: addr{thost, tport}, Err: errConnRefused}
	case <-ctx.Done():
		local.Close()
		remote.Close()
		return nil, ctx.Err()
	}
}

var ephemeral struct {
	mu   sync.Mutex
	next int
}

func ephemeralPort() int {
	ephemeral.mu.Lock()
	defer ephemeral.mu.Unlock()
	if ephemeral.next < 50000 {
		ephemeral.next = 50000
	}
	ephemeral.next++
	return ephemeral.next
}

type listener struct {
	host    *Host
	port    int
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "sim", Addr: l.Addr(), Err: errClosed}
	}
}

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.host.mu.Lock()
		delete(l.host.listeners, l.port)
		l.host.mu.Unlock()
	})
	return nil
}

func (l *listener) Addr() net.Addr { return addr{l.host.name, l.port} }

// addr implements net.Addr for simulated endpoints.
type addr struct {
	host string
	port int
}

func (a addr) Network() string { return "sim" }
func (a addr) String() string  { return fmt.Sprintf("%s:%d", a.host, a.port) }

func splitHostPort(s string) (string, int, error) {
	host, portStr, err := net.SplitHostPort(s)
	if err != nil {
		return "", 0, err
	}
	var port int
	if _, err := fmt.Sscanf(portStr, "%d", &port); err != nil || port <= 0 {
		return "", 0, fmt.Errorf("netsim: bad port %q", portStr)
	}
	return host, port, nil
}
