package devices

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/dnsmsg"
	"github.com/neu-sns/intl-iot-go/internal/faults"
	"github.com/neu-sns/intl-iot-go/internal/netx"
)

// Env is the network environment the generator emits traffic into; the
// testbed provides it.
type Env struct {
	// Lookup resolves a FQDN as seen from the lab's current egress. The
	// time and attempt number give the fault engine (if any) the context
	// of the query; fault-free environments may ignore them.
	Lookup func(fqdn string, t time.Time, attempt int) (cloud.Resolution, error)
	// Peer returns a residential peer address in an ISP's network.
	Peer func(isp string, n int) (netip.Addr, error)

	// Faults injects network impairments into the synthesized traffic;
	// nil means a perfect network and changes nothing.
	Faults *faults.Engine

	DeviceIP   netip.Addr
	GatewayIP  netip.Addr
	DNSAddr    netip.Addr
	DeviceMAC  netx.MAC
	GatewayMAC netx.MAC

	// Lab is the physical lab ("US"/"GB"); VPN reports whether traffic
	// egresses through the remote lab's tunnel.
	Lab string
	VPN bool

	Rng *rand.Rand
}

// Column returns the table-column key for this environment: "US", "GB",
// "US->GB" or "GB->US".
func (e *Env) Column() string {
	if !e.VPN {
		return e.Lab
	}
	if e.Lab == LabUS {
		return "US->GB"
	}
	return "GB->US"
}

// Gen synthesizes one device's traffic.
type Gen struct {
	Inst *Instance
	Env  *Env

	resolved map[string]cloud.Resolution
	dnsID    uint16
	portSeq  uint16
	peerSeq  int
	text     []byte // textualPayload's scratch buffer
}

// NewGen builds a generator for a device instance in an environment.
func NewGen(inst *Instance, env *Env) *Gen {
	return &Gen{Inst: inst, Env: env, resolved: make(map[string]cloud.Resolution), portSeq: 49000}
}

// endpointActive reports whether an endpoint applies in this environment.
func (g *Gen) endpointActive(ep *Endpoint) bool {
	if ep.VPNOnly && !g.Env.VPN {
		return false
	}
	if ep.DirectOnly && g.Env.VPN {
		return false
	}
	if ep.Labs != nil {
		ok := false
		for _, l := range ep.Labs {
			if l == g.Env.Lab {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Power generates the power-on handshake burst (§3.3 power experiments):
// boot-time LAN chatter (DHCP, ARP, SSDP/mDNS) followed by the device's
// first contact with each of its power endpoints.
func (g *Gen) Power(start time.Time) ([]*netx.Packet, time.Time) {
	pkts, now := g.BootLAN(start)
	per := len(g.Inst.Profile.PowerEndpoints)
	if per == 0 {
		per = 1
	}
	sig := g.Inst.Profile.PowerSig
	for _, key := range g.Inst.Profile.PowerEndpoints {
		ep, ok := g.Inst.Profile.Endpoint(key)
		if !ok || !g.endpointActive(ep) {
			continue
		}
		sub := sig
		sub.Packets = maxInt(2, sig.Packets/per)
		leak := g.leakFor(LeakOnPower, "")
		fp, end := g.flow(ep, sub, now, leak)
		pkts = append(pkts, fp...)
		now = end.Add(g.jitterDur(120*time.Millisecond, 80*time.Millisecond))
	}
	return pkts, now
}

// Interaction generates one labelled interaction experiment. The
// activity's first endpoint is its primary channel and carries ~70% of
// the traffic (a camera's video goes to its media endpoint, with only
// thin control flows to the TLS API).
func (g *Gen) Interaction(act *Activity, method Method, start time.Time) ([]*netx.Packet, time.Time) {
	var pkts []*netx.Packet
	now := start
	sig := g.effectiveSig(act, method)
	n := len(act.Endpoints)
	if n == 0 {
		n = 1
	}
	for i, key := range act.Endpoints {
		ep, ok := g.Inst.Profile.Endpoint(key)
		if !ok || !g.endpointActive(ep) {
			continue
		}
		sub := sig
		if n == 1 {
			sub.Packets = maxInt(2, sig.Packets)
		} else if i == 0 {
			sub.Packets = maxInt(2, sig.Packets*7/10)
		} else {
			sub.Packets = maxInt(2, sig.Packets*3/(10*(n-1)))
		}
		leak := g.leakFor(LeakOnActivity, act.Name)
		fp, end := g.flow(ep, sub, now, leak)
		pkts = append(pkts, fp...)
		now = end.Add(g.jitterDur(60*time.Millisecond, 40*time.Millisecond))
	}
	return pkts, now
}

// Idle generates background traffic for a duration, returning the packets
// plus the spurious-activity windows that a perfect observer would label
// (used as coarse ground truth in §7 comparisons).
type IdleEvent struct {
	Activity string
	Method   Method
	Start    time.Time
	End      time.Time
}

// Idle synthesizes idle-period traffic.
func (g *Gen) Idle(start time.Time, dur time.Duration) ([]*netx.Packet, []IdleEvent) {
	p := g.Inst.Profile
	col := g.Env.Column()
	var pkts []*netx.Packet
	var events []IdleEvent
	end := start.Add(dur)

	// Heartbeats.
	if p.Idle.HeartbeatPeriod > 0 && p.Idle.HeartbeatEndpoint != "" {
		if ep, ok := p.Endpoint(p.Idle.HeartbeatEndpoint); ok && g.endpointActive(ep) {
			hb := Signature{Packets: 2, SizeMean: 90, SizeStd: 20, IATMean: 50 * time.Millisecond, IATStd: 20 * time.Millisecond, DownFactor: 1}
			for t := start.Add(p.Idle.HeartbeatPeriod); t.Before(end); t = t.Add(p.Idle.HeartbeatPeriod) {
				fp, _ := g.flow(ep, hb, t, "")
				pkts = append(pkts, fp...)
			}
		}
	}
	// NTP.
	if p.Idle.NTPPeriod > 0 {
		if ep, ok := p.Endpoint("ntp"); ok && g.endpointActive(ep) {
			ntpSig := Signature{Packets: 1, SizeMean: 48, SizeStd: 0, IATMean: 10 * time.Millisecond, DownFactor: 1}
			for t := start.Add(p.Idle.NTPPeriod); t.Before(end); t = t.Add(p.Idle.NTPPeriod) {
				fp, _ := g.flow(ep, ntpSig, t, "")
				pkts = append(pkts, fp...)
			}
		}
	}
	// Wi-Fi reconnects replay the power handshake.
	if rate := p.Idle.ReconnectsPerHour[col]; rate > 0 {
		for _, t := range g.poisson(start, end, rate) {
			fp, fend := g.Power(t)
			pkts = append(pkts, fp...)
			events = append(events, IdleEvent{Activity: "power", Method: MethodLocal, Start: t, End: fend})
		}
	}
	// Spurious activities.
	for _, sp := range p.Idle.Spurious {
		rate := sp.PerHour[col]
		if rate <= 0 {
			continue
		}
		act, ok := p.Activity(sp.ActivityName)
		if !ok {
			continue
		}
		for _, t := range g.poisson(start, end, rate) {
			fp, fend := g.Interaction(act, sp.Method, t)
			pkts = append(pkts, fp...)
			events = append(events, IdleEvent{Activity: sp.ActivityName, Method: sp.Method, Start: t, End: fend})
		}
	}
	netx.SortPacketsByTime(pkts)
	return pkts, events
}

// poisson returns deterministic event times at the given hourly rate.
func (g *Gen) poisson(start, end time.Time, perHour float64) []time.Time {
	var out []time.Time
	mean := time.Duration(float64(time.Hour) / perHour)
	t := start.Add(g.expDur(mean))
	for t.Before(end) {
		out = append(out, t)
		t = t.Add(g.expDur(mean))
	}
	return out
}

func (g *Gen) expDur(mean time.Duration) time.Duration {
	return time.Duration(g.Env.Rng.ExpFloat64() * float64(mean))
}

// effectiveSig applies the method factor and the device's
// distinctiveness: less distinctive devices have noisier signatures,
// which is what drives Table 9's per-category inferrability.
func (g *Gen) effectiveSig(act *Activity, method Method) Signature {
	s := act.Sig
	switch method {
	case MethodWAN:
		// Cloud path: extra round trips through the vendor's servers.
		s.Packets = int(float64(s.Packets)*1.4) + 4
		s.IATMean = time.Duration(float64(s.IATMean) * 1.3)
	case MethodVoice:
		// Assistant path: preamble exchange with the voice backend.
		s.Packets = int(float64(s.Packets)*1.25) + 6
		s.SizeMean *= 1.2
	case MethodLAN:
		// Direct path: chattier but faster local sync messages.
		s.Packets += 3
		s.IATMean = time.Duration(float64(s.IATMean) * 0.8)
		s.SizeMean *= 0.9
	}
	noise := 1.6 - g.Inst.Profile.Distinct
	if noise < 0.4 {
		noise = 0.4
	}
	s.SizeStd *= noise
	s.IATStd = time.Duration(float64(s.IATStd) * noise)
	return s
}

// leakFor renders the PII payload prefix for a phase, if any.
func (g *Gen) leakFor(when LeakWhen, activity string) string {
	for _, l := range g.Inst.Profile.PII {
		if l.When != when && l.When != LeakAlways {
			continue
		}
		if l.When == LeakOnActivity && l.ActivityName != activity {
			continue
		}
		if l.Labs != nil {
			ok := false
			for _, lab := range l.Labs {
				if lab == g.Env.Lab {
					ok = true
				}
			}
			if !ok {
				continue
			}
		}
		return g.Inst.ExpandTemplate(l.Template, "2019-04-01T10")
	}
	return ""
}

// alwaysLeak returns the LeakAlways payload for an endpoint, if declared.
func (g *Gen) alwaysLeak(epKey string) string {
	for _, l := range g.Inst.Profile.PII {
		if l.When == LeakAlways && l.Endpoint == epKey {
			return g.Inst.ExpandTemplate(l.Template, "2019-04-01T10")
		}
	}
	return ""
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *Gen) jitterDur(mean, std time.Duration) time.Duration {
	d := time.Duration(g.Env.Rng.NormFloat64()*float64(std)) + mean
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// nextPort allocates an ephemeral source port.
func (g *Gen) nextPort() uint16 {
	g.portSeq++
	if g.portSeq < 49000 {
		g.portSeq = 49000
	}
	return g.portSeq
}

// resolveEndpoint returns the server address for an endpoint, emitting DNS
// packets for first-time lookups.
func (g *Gen) resolveEndpoint(ep *Endpoint, now time.Time) (netip.Addr, []*netx.Packet, time.Time, error) {
	if ep.PeerISP != "" {
		g.peerSeq++
		addr, err := g.Env.Peer(ep.PeerISP, g.peerSeq%8)
		return addr, nil, now, err
	}
	if res, ok := g.resolved[ep.Domain]; ok {
		return res.Addr, nil, now, nil
	}
	return g.resolveDomain(ep.Domain, now, true)
}

// dnsMaxAttempts is how many times a device queries before falling back
// to a secondary cloud endpoint (and then giving up).
const dnsMaxAttempts = 3

// resolveDomain resolves one FQDN, emitting the wire traffic real
// stub resolvers produce under faults: a query per attempt, a SERVFAIL
// answer when the resolver fails, silence on timeouts, exponential
// backoff between attempts, and finally one shot at the vendor's
// fallback endpoint ("fallback.<domain>", same org) before giving up.
// On a fault-free environment attempt 0 succeeds and the emitted
// packets are byte-identical to the historical single-exchange path.
func (g *Gen) resolveDomain(domain string, now time.Time, allowFallback bool) (netip.Addr, []*netx.Packet, time.Time, error) {
	var pkts []*netx.Packet
	for attempt := 0; attempt < dnsMaxAttempts; attempt++ {
		res, err := g.Env.Lookup(domain, now, attempt)
		if err == nil {
			g.resolved[domain] = res
			g.dnsID++
			q := dnsmsg.NewQuery(g.dnsID, domain, dnsmsg.TypeA)
			resp := dnsmsg.NewResponse(q, res.Answers)
			qp := g.udpPacket(now, g.Env.DNSAddr, g.nextPort(), 53, q.Pack(), true)
			now = now.Add(g.jitterDur(12*time.Millisecond, 4*time.Millisecond) + g.Env.Faults.ExtraRTT("dns|"+domain))
			rp := g.udpPacket(now, g.Env.DNSAddr, qp.UDP.SrcPort, 53, resp.Pack(), false)
			now = now.Add(g.jitterDur(3*time.Millisecond, time.Millisecond))
			return res.Addr, append(pkts, qp, rp), now, nil
		}
		var de *faults.DNSError
		if !errors.As(err, &de) {
			// NXDOMAIN and friends: the query would be answered
			// negatively; keep the historical behaviour (no packets).
			return netip.Addr{}, pkts, now, fmt.Errorf("devices: resolving %q for %s: %w", domain, g.Inst.ID(), err)
		}
		// The query went out and the answer went missing (or came back
		// SERVFAIL); emit what the capture would show and back off.
		g.dnsID++
		q := dnsmsg.NewQuery(g.dnsID, domain, dnsmsg.TypeA)
		qp := g.udpPacket(now, g.Env.DNSAddr, g.nextPort(), 53, q.Pack(), true)
		pkts = append(pkts, qp)
		if de.Outcome == faults.DNSServFail {
			now = now.Add(g.jitterDur(12*time.Millisecond, 4*time.Millisecond))
			fail := dnsmsg.NewResponse(q, nil)
			fail.RCode = dnsmsg.RCodeServFail
			pkts = append(pkts, g.udpPacket(now, g.Env.DNSAddr, qp.UDP.SrcPort, 53, fail.Pack(), false))
			now = now.Add(250 * time.Millisecond << attempt)
		} else {
			// Timeout: the stub waits out its timer, doubling each try.
			now = now.Add(time.Second << attempt)
		}
	}
	if allowFallback {
		// Exhausted retries: try the vendor's hard-coded fallback
		// endpoint (same SLD, so it reaches the same organisation).
		g.Env.Faults.CountDNSFallback()
		addr, fpkts, end, err := g.resolveDomain("fallback."+domain, now, false)
		pkts = append(pkts, fpkts...)
		if err == nil {
			// Future flows to the primary name reuse this answer, as a
			// device caching its fallback would.
			g.resolved[domain] = g.resolved["fallback."+domain]
			return addr, pkts, end, nil
		}
		now = end
	}
	return netip.Addr{}, pkts, now, fmt.Errorf("devices: resolving %q for %s: DNS retries exhausted", domain, g.Inst.ID())
}

// udpPacket builds one UDP packet between device and a remote address.
// up=true means device→remote.
func (g *Gen) udpPacket(ts time.Time, remote netip.Addr, devPort, remotePort uint16, payload []byte, up bool) *netx.Packet {
	p := &netx.Packet{
		Meta: netx.CaptureInfo{Timestamp: ts},
		Eth:  netx.Ethernet{EtherType: netx.EtherTypeIPv4},
	}
	if up {
		p.Eth.Src, p.Eth.Dst = g.Env.DeviceMAC, g.Env.GatewayMAC
		p.IPv4 = &netx.IPv4{TTL: 64, Protocol: netx.ProtoUDP, Src: g.Env.DeviceIP, Dst: remote}
		p.UDP = &netx.UDP{SrcPort: devPort, DstPort: remotePort}
	} else {
		p.Eth.Src, p.Eth.Dst = g.Env.GatewayMAC, g.Env.DeviceMAC
		p.IPv4 = &netx.IPv4{TTL: 52, Protocol: netx.ProtoUDP, Src: remote, Dst: g.Env.DeviceIP}
		p.UDP = &netx.UDP{SrcPort: remotePort, DstPort: devPort}
	}
	p.Payload = payload
	p.Meta.Length = p.WireLen()
	p.Meta.CaptureLength = p.Meta.Length
	return p
}

// tcpPacket builds one TCP packet. up=true means device→remote.
func (g *Gen) tcpPacket(ts time.Time, remote netip.Addr, devPort, remotePort uint16, flags uint8, seq, ack uint32, payload []byte, up bool) *netx.Packet {
	p := &netx.Packet{
		Meta: netx.CaptureInfo{Timestamp: ts},
		Eth:  netx.Ethernet{EtherType: netx.EtherTypeIPv4},
	}
	if up {
		p.Eth.Src, p.Eth.Dst = g.Env.DeviceMAC, g.Env.GatewayMAC
		p.IPv4 = &netx.IPv4{TTL: 64, Protocol: netx.ProtoTCP, Src: g.Env.DeviceIP, Dst: remote}
		p.TCP = &netx.TCP{SrcPort: devPort, DstPort: remotePort, Flags: flags, Seq: seq, Ack: ack, Window: 29200}
	} else {
		p.Eth.Src, p.Eth.Dst = g.Env.GatewayMAC, g.Env.DeviceMAC
		p.IPv4 = &netx.IPv4{TTL: 52, Protocol: netx.ProtoTCP, Src: remote, Dst: g.Env.DeviceIP}
		p.TCP = &netx.TCP{SrcPort: remotePort, DstPort: devPort, Flags: flags, Seq: seq, Ack: ack, Window: 26883}
	}
	p.Payload = payload
	p.Meta.Length = p.WireLen()
	p.Meta.CaptureLength = p.Meta.Length
	return p
}
