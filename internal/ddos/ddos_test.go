package ddos

import (
	"net/netip"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/netflow"
)

var victim = netip.MustParseAddr("23.1.1.1")

func flow(proto netflow.Proto, srcPort, dstPort uint16, flags uint8) netflow.Record {
	return netflow.Record{
		Src: netip.MustParseAddr("11.2.3.4"), Dst: victim,
		SrcPort: srcPort, DstPort: dstPort, Proto: proto, TCPFlags: flags,
		Packets: 10, Bytes: 640,
	}
}

func TestSignatureForShapes(t *testing.T) {
	cases := []struct {
		at    AttackType
		proto netflow.Proto
		sport uint16
	}{
		{UDPFlood, netflow.ProtoUDP, 0},
		{DNSAmp, netflow.ProtoUDP, 53},
		{TCPACK, netflow.ProtoTCP, 0},
		{TCPSYN, netflow.ProtoTCP, 0},
		{TCPRST, netflow.ProtoTCP, 0},
		{ICMPFlood, netflow.ProtoICMP, 0},
	}
	for _, c := range cases {
		sig := SignatureFor(c.at, victim)
		if sig.Proto != c.proto || sig.SrcPort != c.sport || sig.Victim != victim || sig.Type != c.at {
			t.Errorf("%v: got %+v", c.at, sig)
		}
	}
}

func TestSignatureForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SignatureFor(NumAttackTypes, victim)
}

func TestSignatureMatchesUDP(t *testing.T) {
	sig := SignatureFor(UDPFlood, victim)
	if !sig.Matches(flow(netflow.ProtoUDP, 1234, 80, 0)) {
		t.Fatal("UDP flood signature must match any UDP flow to the victim")
	}
	if sig.Matches(flow(netflow.ProtoTCP, 1234, 80, netflow.FlagACK)) {
		t.Fatal("must not match TCP")
	}
	other := flow(netflow.ProtoUDP, 1234, 80, 0)
	other.Dst = netip.MustParseAddr("23.9.9.9")
	if sig.Matches(other) {
		t.Fatal("must not match another victim")
	}
}

func TestSignatureMatchesDNSAmp(t *testing.T) {
	sig := SignatureFor(DNSAmp, victim)
	if !sig.Matches(flow(netflow.ProtoUDP, 53, 4444, 0)) {
		t.Fatal("src port 53 UDP must match")
	}
	if sig.Matches(flow(netflow.ProtoUDP, 123, 4444, 0)) {
		t.Fatal("other source ports must not match")
	}
}

func TestSignatureMatchesTCPFlagDiscrimination(t *testing.T) {
	ack := SignatureFor(TCPACK, victim)
	syn := SignatureFor(TCPSYN, victim)
	rst := SignatureFor(TCPRST, victim)

	pureACK := flow(netflow.ProtoTCP, 1, 80, netflow.FlagACK)
	pureSYN := flow(netflow.ProtoTCP, 1, 80, netflow.FlagSYN)
	synACK := flow(netflow.ProtoTCP, 1, 80, netflow.FlagSYN|netflow.FlagACK)
	pureRST := flow(netflow.ProtoTCP, 1, 80, netflow.FlagRST)

	if !ack.Matches(pureACK) || ack.Matches(pureSYN) || ack.Matches(synACK) || ack.Matches(pureRST) {
		t.Fatal("ACK signature flag discrimination wrong")
	}
	if !syn.Matches(pureSYN) || syn.Matches(pureACK) || syn.Matches(synACK) {
		t.Fatal("SYN signature flag discrimination wrong")
	}
	if !rst.Matches(pureRST) || rst.Matches(pureACK) {
		t.Fatal("RST signature flag discrimination wrong")
	}
}

func TestSeverityFromPeakMbps(t *testing.T) {
	cases := []struct {
		mbps float64
		want Severity
	}{{1, SeverityLow}, {9.99, SeverityLow}, {10, SeverityMedium}, {49, SeverityMedium}, {50, SeverityHigh}, {500, SeverityHigh}}
	for _, c := range cases {
		if got := SeverityFromPeakMbps(c.mbps); got != c.want {
			t.Errorf("SeverityFromPeakMbps(%v) = %v, want %v", c.mbps, got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if UDPFlood.String() != "udp-flood" || DNSAmp.String() != "dns-amp" {
		t.Fatal("attack names")
	}
	if AttackType(-1).String() != "unknown" || NumAttackTypes.String() != "unknown" {
		t.Fatal("out-of-range attack names")
	}
	if SeverityHigh.String() != "high" || Severity(9).String() != "unknown" {
		t.Fatal("severity names")
	}
	if int(NumAttackTypes) != 6 {
		t.Fatalf("paper evaluates 6 attack types, have %d", NumAttackTypes)
	}
	if int(NumSeverities) != 3 {
		t.Fatalf("A4 uses 3 severities, have %d", NumSeverities)
	}
}

func TestAlertDuration(t *testing.T) {
	t0 := time.Date(2019, 7, 3, 12, 0, 0, 0, time.UTC)
	a := Alert{DetectedAt: t0, MitigatedAt: t0.Add(15 * time.Minute)}
	if a.Duration() != 15*time.Minute {
		t.Fatalf("Duration = %v", a.Duration())
	}
}

// TestRecordTypesMatchesSignatures pins the one-pass classifier to the
// per-signature definition: for every attack type, RecordTypes sets the
// type's bit exactly when SignatureFor(type, victim).MatchesRecord does,
// over every protocol shape, all 256 flag bytes, DNS and other source
// ports, and records to the victim and to another address.
func TestRecordTypesMatchesSignatures(t *testing.T) {
	other := netip.MustParseAddr("23.1.1.2")
	n := 0
	for _, proto := range []netflow.Proto{netflow.ProtoTCP, netflow.ProtoUDP, netflow.ProtoICMP, 47} {
		for flags := 0; flags < 256; flags++ {
			for _, sport := range []uint16{53, 443} {
				for _, dst := range []netip.Addr{victim, other} {
					r := flow(proto, sport, 80, uint8(flags))
					r.Dst = dst
					got := RecordTypes(&r, victim)
					for at := AttackType(0); at < NumAttackTypes; at++ {
						sig := SignatureFor(at, victim)
						if want := sig.MatchesRecord(&r); (got>>at&1 == 1) != want {
							t.Fatalf("%v proto %d flags %#x sport %d dst %v: RecordTypes bit %v, MatchesRecord %v",
								at, proto, flags, sport, dst, got>>at&1 == 1, want)
						}
					}
					n++
				}
			}
		}
	}
	if n != 4*256*2*2 {
		t.Fatalf("checked %d records", n)
	}
}

func TestTallyRecords(t *testing.T) {
	flows := []netflow.Record{
		flow(netflow.ProtoUDP, 53, 80, 0),
		flow(netflow.ProtoUDP, 1024, 80, 0),
		flow(netflow.ProtoTCP, 1024, 80, netflow.FlagSYN|netflow.FlagRST),
		flow(netflow.ProtoICMP, 0, 0, 0),
	}
	flows[1].Bytes = 100
	tl := TallyRecords(flows, victim)
	want := Tally{
		Records: [NumAttackTypes]int{UDPFlood: 2, TCPSYN: 1, TCPRST: 1, DNSAmp: 1, ICMPFlood: 1},
		Bytes:   [NumAttackTypes]float64{UDPFlood: 740, TCPSYN: 640, TCPRST: 640, DNSAmp: 640, ICMPFlood: 640},
	}
	if tl != want {
		t.Fatalf("TallyRecords = %+v, want %+v", tl, want)
	}
	if TallyRecords(flows, netip.MustParseAddr("23.9.9.9")) != (Tally{}) {
		t.Fatal("records to another address must not count")
	}
}
