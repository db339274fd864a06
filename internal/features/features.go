// Package features implements Xatu's 273-feature extractor (Table 1). For
// one customer and one time step it turns the step's flow records into:
//
//   - V: 63 volumetric features over all flows;
//   - A1/A2/A3: the same 63 features over the sub-flows whose sources are
//     blocklisted, previous attackers of this customer, or spoofed;
//   - A4: 18 attack-history features (severity histogram per attack type);
//   - A5: 3 bipartite clustering coefficients (dot/min/max).
//
// The 63-feature volumetric block is: unique source nodes (1); mean and max
// of per-flow traffic in bytes and packets (4); UDP/TCP/ICMP traffic (6);
// traffic from 5 popular source ports (10); traffic to 5 popular
// destination ports (10); traffic with each of 6 TCP flags (12); traffic
// from 10 popular countries (20). Counted features are measured in both
// bytes and packets, following the table's († ) note.
package features

import (
	"math/bits"
	"net/netip"
	"slices"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/compact"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/spoof"
)

// PopularPorts are the five ports from Appendix D ("prevalent in our
// NetFlow and take up over 95% of traffic").
var PopularPorts = [5]uint16{0, 53, 80, 123, 443}

// PopularCountries are the ten countries from Appendix D.
var PopularCountries = [10]string{"US", "IN", "SA", "CN", "GB", "NL", "FR", "DE", "BR", "CA"}

// tcpFlags lists the six flag bits the flag features disaggregate.
var tcpFlags = [6]uint8{netflow.FlagFIN, netflow.FlagSYN, netflow.FlagRST, netflow.FlagPSH, netflow.FlagACK, netflow.FlagURG}

// Sizes of the feature blocks.
const (
	VolumetricSize = 63
	A4Size         = int(ddos.NumAttackTypes) * int(ddos.NumSeverities) // 18
	A5Size         = 3
	// NumFeatures is the full input width: V + A1 + A2 + A3 + A4 + A5.
	NumFeatures = 4*VolumetricSize + A4Size + A5Size // 273
)

// Offsets of each block within the feature vector.
const (
	OffV  = 0
	OffA1 = VolumetricSize
	OffA2 = 2 * VolumetricSize
	OffA3 = 3 * VolumetricSize
	OffA4 = 4 * VolumetricSize
	OffA5 = 4*VolumetricSize + A4Size
)

// Extractor computes feature vectors. It is safe for concurrent use as long
// as the underlying registries are (they are).
type Extractor struct {
	Blocklists *blocklist.Registry
	History    *attackhist.Registry
	Spoof      *spoof.Checker
	// Geo maps a source address to a country code.
	Geo func(netip.Addr) string
	// A4Window bounds how far back the severity histogram looks.
	A4Window time.Duration
	// A5Window bounds the clustering-coefficient attacker graph.
	A5Window time.Duration

	// Disable masks signal groups for the §6.3 ablations: entries are
	// "A1".."A5". A disabled group's features are extracted as zero.
	Disable map[string]bool
	// BlocklistCategories restricts the A1 signal to specific blocklist
	// categories (Appendix E's per-category breakdown); nil means all.
	BlocklistCategories []blocklist.Category
}

// Scratch holds the reusable state of ExtractInto: the step's source set
// and the per-source and per-record side tables survive across calls, so a
// warmed-up extraction loop allocates nothing. A Scratch belongs to one
// extraction loop at a time — it is not safe for concurrent use (the
// Extractor itself remains shareable).
type Scratch struct {
	// index numbers the step's distinct IPv4 sources (4-in-6 ones under
	// their IPv4 word) in first-appearance order; other holds the sources
	// that are not IPv4, numbered after them.
	index map[uint32]int32
	other map[netip.Addr]int32
	// Per distinct source: its address word (IPv4 sources only), its group
	// mask (bit g set when the source's records count towards group g) and
	// its country slot (−1: not a popular country).
	words   []uint32
	masks   []uint8
	country []int8
	// srcOf[i] is the source number of flows[i]; a non-IPv4 source k is
	// stored as ^k until the IPv4 count is known.
	srcOf []int32
}

// The four volumetric groups, as bit positions of a source's group mask and
// as block numbers of the output vector.
const (
	groupV = iota
	groupA1
	groupA2
	groupA3
	numGroups
)

// Slots of one 63-feature volumetric block; the per-protocol, per-port,
// per-flag and per-country counters are (bytes, packets) pairs from
// slotProto on.
const (
	slotUnique = iota
	slotMeanBytes
	slotMaxBytes
	slotMeanPkts
	slotMaxPkts
	slotProto
	slotSrcPort = slotProto + 2*3
	slotDstPort = slotSrcPort + 2*len(PopularPorts)
	slotFlag    = slotDstPort + 2*len(PopularPorts)
	slotCountry = slotFlag + 2*len(tcpFlags)
)

// The slots fill the block exactly.
var _ [0]struct{} = [VolumetricSize - (slotCountry + 2*len(PopularCountries))]struct{}{}

// Extract computes the 273-vector for one customer at one step. flows are
// the step's records destined to the customer. It allocates the output
// vector and scratch state per call; hot loops should hold a Scratch and
// call ExtractInto.
func (e *Extractor) Extract(customer netip.Addr, at time.Time, flows []netflow.Record) []float64 {
	return e.ExtractInto(make([]float64, NumFeatures), new(Scratch), customer, at, flows)
}

// ExtractInto computes the same 273-vector as Extract into dst, reusing
// s. dst is grown (or allocated) to NumFeatures and returned; passing the
// previous call's return value back in makes the steady state
// allocation-free.
//
// The step costs one pass over its records and one over its distinct
// sources. Group membership (blocklisted, previous attacker, spoofed) and
// country are properties of the source, so each is looked up once per
// distinct source — the registries in bulk, each under a single read lock —
// and a record then adds its counters to every group its source's mask
// names.
//
// Every volumetric feature is a sum, a maximum or a distinct count of
// uint32 values held in float64. Such sums are exact below 2^53 — more
// than two million records of math.MaxUint32 bytes in one step — and exact
// sums do not depend on the order of their terms: the vector is the same,
// bit for bit, for any order of flows.
func (e *Extractor) ExtractInto(dst []float64, s *Scratch, customer netip.Addr, at time.Time, flows []netflow.Record) []float64 {
	if cap(dst) < NumFeatures {
		dst = make([]float64, NumFeatures)
	} else {
		dst = dst[:NumFeatures]
		clear(dst)
	}
	nV4 := s.collectSources(flows)
	e.markSources(s, nV4, customer, at)

	var nFlows [numGroups]float64
	for i := range flows {
		r := &flows[i]
		src := s.srcOf[i]
		if src < 0 {
			src = int32(nV4) + ^src
		}
		b, p := float64(r.Bytes), float64(r.Packets)
		// The record's facts, as slot numbers of a block (−1: none).
		proto, srcPort, dstPort := -1, -1, -1
		var flags uint8
		switch r.Proto {
		case netflow.ProtoUDP:
			proto = slotProto
		case netflow.ProtoTCP:
			proto = slotProto + 2
			flags = r.TCPFlags & (1<<len(tcpFlags) - 1)
		case netflow.ProtoICMP:
			proto = slotProto + 4
		}
		for k, port := range PopularPorts {
			if r.SrcPort == port {
				srcPort = slotSrcPort + 2*k
			}
			if r.DstPort == port {
				dstPort = slotDstPort + 2*k
			}
		}
		country := -1
		if c := s.country[src]; c >= 0 {
			country = slotCountry + 2*int(c)
		}
		for mask := s.masks[src]; mask != 0; mask &= mask - 1 {
			g := bits.TrailingZeros8(mask)
			blk := (*[VolumetricSize]float64)(dst[g*VolumetricSize:])
			nFlows[g]++
			blk[slotMeanBytes] += b // the sum until the division below
			blk[slotMeanPkts] += p
			if b > blk[slotMaxBytes] {
				blk[slotMaxBytes] = b
			}
			if p > blk[slotMaxPkts] {
				blk[slotMaxPkts] = p
			}
			for _, slot := range [...]int{proto, srcPort, dstPort, country} {
				if slot >= 0 {
					blk[slot] += b
					blk[slot+1] += p
				}
			}
			for f := flags; f != 0; f &= f - 1 {
				slot := slotFlag + 2*bits.TrailingZeros8(f)
				blk[slot] += b
				blk[slot+1] += p
			}
		}
	}
	for _, mask := range s.masks {
		for ; mask != 0; mask &= mask - 1 {
			dst[bits.TrailingZeros8(mask)*VolumetricSize+slotUnique]++
		}
	}
	for g, n := range nFlows {
		if n > 0 {
			dst[g*VolumetricSize+slotMeanBytes] /= n
			dst[g*VolumetricSize+slotMeanPkts] /= n
		}
	}
	if e.History != nil && !e.Disable["A4"] {
		hist := e.History.SeverityHistogram(customer, at, e.A4Window)
		copy(dst[OffA4:OffA4+A4Size], hist[:])
	}
	if e.History != nil && !e.Disable["A5"] {
		dst[OffA5], dst[OffA5+1], dst[OffA5+2] = e.History.Clusterings(customer, at, e.A5Window)
	}
	return dst
}

// collectSources numbers the distinct sources of flows into s.index,
// s.other, s.words and s.srcOf, and returns how many of them are IPv4.
func (s *Scratch) collectSources(flows []netflow.Record) (nV4 int) {
	if s.index == nil {
		s.index = make(map[uint32]int32, 16)
	}
	clear(s.index)
	clear(s.other)
	s.words = s.words[:0]
	s.srcOf = slices.Grow(s.srcOf[:0], len(flows))[:len(flows)]
	for i := range flows {
		w, ok := compact.IPv4(flows[i].Src)
		if !ok {
			k, seen := s.other[flows[i].Src]
			if !seen {
				if s.other == nil {
					s.other = make(map[netip.Addr]int32)
				}
				k = int32(len(s.other))
				s.other[flows[i].Src] = k
			}
			s.srcOf[i] = ^k
			continue
		}
		k, seen := s.index[w]
		if !seen {
			k = int32(len(s.words))
			s.index[w] = k
			s.words = append(s.words, w)
		}
		s.srcOf[i] = k
	}
	return len(s.words)
}

// markSources fills s.masks and s.country for the collected sources: the
// IPv4 ones in [0, nV4) through the bulk registry tests, the others after
// them — never listed, never previous attackers, classified by the spoof
// checker like any source no prefix covers.
func (e *Extractor) markSources(s *Scratch, nV4 int, customer netip.Addr, at time.Time) {
	n := nV4 + len(s.other)
	s.masks = slices.Grow(s.masks[:0], n)[:n]
	s.country = slices.Grow(s.country[:0], n)[:n]
	for i := range s.masks {
		s.masks[i] = 1 << groupV
	}
	if e.Blocklists != nil && !e.Disable["A1"] {
		e.Blocklists.MarkListed(s.masks, 1<<groupA1, s.words, at, e.BlocklistCategories)
	}
	if e.History != nil && !e.Disable["A2"] {
		e.History.MarkAttackers(s.masks, 1<<groupA2, customer, s.words, at)
	}
	checkA3 := e.Spoof != nil && !e.Disable["A3"]
	for i, w := range s.words {
		if checkA3 && e.Spoof.ClassifyWord(w, 0).Spoofed() {
			s.masks[i] |= 1 << groupA3
		}
		s.country[i] = e.countrySlot(compact.Addr(w))
	}
	for src, k := range s.other {
		if checkA3 && e.Spoof.IsSpoofed(src, 0) {
			s.masks[nV4+int(k)] |= 1 << groupA3
		}
		s.country[nV4+int(k)] = e.countrySlot(src)
	}
}

// countrySlot returns the index of src's country in PopularCountries, or
// −1. Country codes are two letters (ISO 3166-1 alpha-2): comparing two
// bytes saves a memequal call per candidate.
func (e *Extractor) countrySlot(src netip.Addr) int8 {
	if e.Geo == nil {
		return -1
	}
	if c := e.Geo(src); len(c) == 2 {
		for i := range PopularCountries {
			if pc := PopularCountries[i]; c[0] == pc[0] && c[1] == pc[1] {
				return int8(i)
			}
		}
	}
	return -1
}
