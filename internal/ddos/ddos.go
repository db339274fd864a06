// Package ddos holds the domain types shared across the repo: attack
// types, severities, detector alerts and their traffic signatures. The six
// attack types are the prevalent ones the paper evaluates (Table 2),
// covering 97.2% of all alerts in its dataset.
package ddos

import (
	"fmt"
	"math/bits"
	"net/netip"
	"time"

	"github.com/xatu-go/xatu/internal/netflow"
)

// AttackType enumerates the six prevalent DDoS attack types.
type AttackType int

// The attack types from Table 2, in the paper's order.
const (
	UDPFlood AttackType = iota
	TCPACK
	TCPSYN
	TCPRST
	DNSAmp
	ICMPFlood
	NumAttackTypes // sentinel
)

var attackNames = [...]string{"udp-flood", "tcp-ack", "tcp-syn", "tcp-rst", "dns-amp", "icmp-flood"}

// String returns the attack-type slug.
func (a AttackType) String() string {
	if a < 0 || int(a) >= len(attackNames) {
		return "unknown"
	}
	return attackNames[a]
}

// Severity is the coarse attack-severity label used by the A4 feature set
// (low / medium / high per attack type → 18 features).
type Severity int

// Severity levels.
const (
	SeverityLow Severity = iota
	SeverityMedium
	SeverityHigh
	NumSeverities // sentinel
)

// String returns the severity name.
func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "low"
	case SeverityMedium:
		return "medium"
	case SeverityHigh:
		return "high"
	default:
		return "unknown"
	}
}

// SeverityFromPeakMbps buckets a peak anomalous rate into a severity.
// Thresholds follow the paper's observation that ~75% of attacks peak below
// 21 Mbps: low < 10 Mbps ≤ medium < 50 Mbps ≤ high.
func SeverityFromPeakMbps(peak float64) Severity {
	switch {
	case peak < 10:
		return SeverityLow
	case peak < 50:
		return SeverityMedium
	default:
		return SeverityHigh
	}
}

// Signature is the coarse-grained anomalous-traffic signature a CDet alert
// carries (§2.1): victim destination, transport protocol, and optionally a
// source and/or destination port (0 = wildcard).
type Signature struct {
	Victim  netip.Addr
	Proto   netflow.Proto
	SrcPort uint16
	DstPort uint16
	Type    AttackType
}

// Matches reports whether a flow record matches the signature.
func (s Signature) Matches(r netflow.Record) bool { return s.MatchesRecord(&r) }

// MatchesRecord is Matches for loops over a step's records: it reads the
// record in place instead of copying its 120 bytes per signature tried.
func (s *Signature) MatchesRecord(r *netflow.Record) bool {
	if r.Dst != s.Victim || r.Proto != s.Proto {
		return false
	}
	if s.SrcPort != 0 && r.SrcPort != s.SrcPort {
		return false
	}
	if s.DstPort != 0 && r.DstPort != s.DstPort {
		return false
	}
	// TCP attack types additionally constrain the dominant flag.
	if r.Proto == netflow.ProtoTCP {
		switch s.Type {
		case TCPACK:
			return r.TCPFlags&netflow.FlagACK != 0 && r.TCPFlags&netflow.FlagSYN == 0 && r.TCPFlags&netflow.FlagRST == 0
		case TCPSYN:
			return r.TCPFlags&netflow.FlagSYN != 0 && r.TCPFlags&netflow.FlagACK == 0
		case TCPRST:
			return r.TCPFlags&netflow.FlagRST != 0
		}
	}
	return true
}

// SignatureFor returns the canonical signature for an attack of type at
// against victim, following §2.1's example (e.g. a UDP flood signature
// pins source port 53 when it is DNS-reflection shaped).
func SignatureFor(at AttackType, victim netip.Addr) Signature {
	sig := Signature{Victim: victim, Type: at}
	switch at {
	case UDPFlood:
		sig.Proto = netflow.ProtoUDP
	case DNSAmp:
		sig.Proto = netflow.ProtoUDP
		sig.SrcPort = 53
	case TCPACK, TCPSYN, TCPRST:
		sig.Proto = netflow.ProtoTCP
	case ICMPFlood:
		sig.Proto = netflow.ProtoICMP
	default:
		panic(fmt.Sprintf("ddos: unknown attack type %d", at))
	}
	return sig
}

// RecordTypes returns, one bit per attack type, the types whose canonical
// signature SignatureFor(t, victim) matches r: MatchesRecord for all six
// at once, with one branch on the protocol.
func RecordTypes(r *netflow.Record, victim netip.Addr) uint8 {
	if r.Dst != victim {
		return 0
	}
	switch r.Proto {
	case netflow.ProtoUDP:
		if r.SrcPort == 53 {
			return 1<<UDPFlood | 1<<DNSAmp
		}
		return 1 << UDPFlood
	case netflow.ProtoTCP:
		f := r.TCPFlags
		var types uint8
		if f&netflow.FlagACK != 0 && f&(netflow.FlagSYN|netflow.FlagRST) == 0 {
			types |= 1 << TCPACK
		}
		if f&netflow.FlagSYN != 0 && f&netflow.FlagACK == 0 {
			types |= 1 << TCPSYN
		}
		if f&netflow.FlagRST != 0 {
			types |= 1 << TCPRST
		}
		return types
	case netflow.ProtoICMP:
		return 1 << ICMPFlood
	}
	return 0
}

// Tally is one step's signature sums: per attack type, how many records
// match the type's canonical signature and their bytes, added in record
// order.
type Tally struct {
	Records [NumAttackTypes]int
	Bytes   [NumAttackTypes]float64
}

// Add counts one record of the given bytes towards each type in types (a
// RecordTypes result).
func (t *Tally) Add(types uint8, bytes float64) {
	for ; types != 0; types &= types - 1 {
		k := bits.TrailingZeros8(types)
		t.Records[k]++
		t.Bytes[k] += bytes
	}
}

// TallyRecords tallies flows against victim's six signatures.
func TallyRecords(flows []netflow.Record, victim netip.Addr) Tally {
	var t Tally
	for i := range flows {
		t.Add(RecordTypes(&flows[i], victim), float64(flows[i].Bytes))
	}
	return t
}

// Alert is one detection event, from CDet or from Xatu.
type Alert struct {
	Sig        Signature
	DetectedAt time.Time
	// MitigatedAt is when the scrubbing center declared the attack over and
	// traffic diversion stopped.
	MitigatedAt time.Time
	// Source labels the producing system ("netscout", "fastnetmon", "xatu", …).
	Source string
	// Severity is the coarse severity bucket assigned at detection time.
	Severity Severity
}

// Duration returns the mitigation window length.
func (a Alert) Duration() time.Duration { return a.MitigatedAt.Sub(a.DetectedAt) }
