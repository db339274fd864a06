// Package blocklist implements the A1 auxiliary-signal substrate (§5.1):
// a registry of public blocklists grouped into the paper's 11 categories,
// aggregated to /24 subnets ("a standard approach to improve the
// effectiveness of blocklists … due to dynamically managed IP address
// space"). Entries carry listing timestamps so the registry can answer
// "was this source listed at time T", and the registry supports churn
// (additions/expiries) to model frequently updated lists.
package blocklist

import (
	"math/bits"
	"net/netip"
	"sync"
	"time"

	"github.com/xatu-go/xatu/internal/compact"
)

// Category labels one of the 11 blocklist categories used in the paper's
// A1 breakdown (Appendix E names DDoS-source, bot and scanner as the three
// most prevalent).
type Category int

// The 11 categories. Their relative prevalence in the synthetic world is
// configured by the simulator.
const (
	DDoSSource Category = iota
	Bot
	Scanner
	Reflector
	VoIPAbuse
	CandCServer
	MalwareMirai
	MalwareGafgyt
	BruteForce
	SpamSource
	ExploitScan
	NumCategories // sentinel
)

var categoryNames = [...]string{
	"ddos-source", "bot", "scanner", "reflector", "voip-abuse",
	"cc-server", "malware-mirai", "malware-gafgyt", "brute-force",
	"spam-source", "exploit-scan",
}

// String returns the category slug.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return "unknown"
	}
	return categoryNames[c]
}

// subnet24 is the /24 aggregation key of an address: its IPv4 word with the
// last octet zeroed. ok is false for a source that is neither IPv4 nor
// IPv4-mapped IPv6; such a source can be neither listed nor found listed.
func subnet24(addr netip.Addr) (key uint32, ok bool) {
	w, ok := compact.IPv4(addr)
	return w &^ 0xff, ok
}

// allCategories selects every category in a membership test.
const allCategories = 1<<NumCategories - 1

type entry struct {
	listedAt  compact.Instant
	expiresAt compact.Instant // compact.Never for a permanent entry
}

// Registry is a thread-safe blocklist registry. Lookups are by /24 subnet
// and point-in-time, so historical feature extraction sees exactly the
// lists that were live at each minute. The maps are keyed by the /24's
// IPv4 word and hold no pointers.
type Registry struct {
	mu   sync.RWMutex
	cats [NumCategories]map[uint32]entry
	// anyCats[key] is the bitmask of categories holding an entry for key.
	// A membership test consults this one map and then only the categories
	// whose bits are set, instead of probing all 11 category maps. Entries
	// only expire by timestamp (never by deletion), so the mask is add-only
	// and stays exact.
	anyCats map[uint32]uint16
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{anyCats: make(map[uint32]uint16)}
	for i := range r.cats {
		r.cats[i] = make(map[uint32]entry)
	}
	return r
}

// Add lists the /24 containing addr under cat starting at listedAt. A zero
// ttl keeps the entry forever; otherwise it expires after ttl. An address
// that is not IPv4 is ignored.
func (r *Registry) Add(cat Category, addr netip.Addr, listedAt time.Time, ttl time.Duration) {
	key, ok := subnet24(addr)
	if !ok || cat < 0 || cat >= NumCategories {
		return
	}
	e := entry{listedAt: compact.At(listedAt), expiresAt: compact.Never}
	if ttl > 0 {
		e.expiresAt = compact.At(listedAt.Add(ttl))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.cats[cat][key]; ok && old.listedAt.Before(e.listedAt) {
		// Keep the earliest listing time; extend expiry.
		e.listedAt = old.listedAt
		if e.expiresAt.Before(old.expiresAt) {
			e.expiresAt = old.expiresAt
		}
	}
	r.cats[cat][key] = e
	r.anyCats[key] |= 1 << cat
}

// liveLocked returns the subset of the categories in want under which key
// is listed at t. Caller holds at least the read lock.
func (r *Registry) liveLocked(key uint32, want uint16, t compact.Instant) uint16 {
	var live uint16
	for mask := r.anyCats[key] & want; mask != 0; mask &= mask - 1 {
		c := bits.TrailingZeros16(mask)
		if e := r.cats[c][key]; !t.Before(e.listedAt) && t.Before(e.expiresAt) {
			live |= 1 << c
		}
	}
	return live
}

// live is liveLocked for one address under the read lock.
func (r *Registry) live(addr netip.Addr, want uint16, t time.Time) uint16 {
	key, ok := subnet24(addr)
	if !ok {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.liveLocked(key, want, compact.At(t))
}

// ListedAt reports whether addr's /24 was listed under cat at time t.
func (r *Registry) ListedAt(cat Category, addr netip.Addr, t time.Time) bool {
	if cat < 0 || cat >= NumCategories {
		return false
	}
	return r.live(addr, 1<<cat, t) != 0
}

// AnyListedAt reports whether addr's /24 appears on any category at time
// t.
func (r *Registry) AnyListedAt(addr netip.Addr, t time.Time) bool {
	return r.live(addr, allCategories, t) != 0
}

// MarkListed is the bulk membership test of feature extraction: under one
// read lock it ORs bit into marks[i] for every IPv4 source word srcs[i]
// whose /24 is listed at t — on any category when cats is nil, otherwise on
// one of cats.
func (r *Registry) MarkListed(marks []uint8, bit uint8, srcs []uint32, t time.Time, cats []Category) {
	want := uint16(allCategories)
	if cats != nil {
		want = 0
		for _, c := range cats {
			if c >= 0 && c < NumCategories {
				want |= 1 << c
			}
		}
	}
	at := compact.At(t)
	marks = marks[:len(srcs)]
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, w := range srcs {
		if r.liveLocked(w&^0xff, want, at) != 0 {
			marks[i] |= bit
		}
	}
}

// Categories returns the set of categories addr's /24 is listed under at t.
func (r *Registry) Categories(addr netip.Addr, t time.Time) []Category {
	var out []Category
	for mask := r.live(addr, allCategories, t); mask != 0; mask &= mask - 1 {
		out = append(out, Category(bits.TrailingZeros16(mask)))
	}
	return out
}

// Size returns the number of listed /24s per category.
func (r *Registry) Size() [NumCategories]int {
	var out [NumCategories]int
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.cats {
		out[i] = len(r.cats[i])
	}
	return out
}
