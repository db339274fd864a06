// Package attackhist maintains the attack-history state behind three of
// Xatu's auxiliary signals (§3.2–§3.3):
//
//   - A2: per-customer sets of previous attack sources, built from traffic
//     matching alert signatures between detection and mitigation-end;
//   - A4: per-customer history of attack types and severities;
//   - A5: cross-customer attack correlation, measured with the bipartite
//     clustering coefficients of Latapy et al. in their dot/min/max variants.
//
// The registry is time-aware: every query takes an as-of instant so that
// historical feature extraction sees only information that was available
// at that minute.
package attackhist

import (
	"maps"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/xatu-go/xatu/internal/compact"
	"github.com/xatu-go/xatu/internal/ddos"
)

// Registry is a thread-safe attack-history store. Attack sources are IPv4
// hosts, held by their address word in maps without pointers; a source that
// is neither IPv4 nor IPv4-mapped IPv6 is never recorded and never a
// previous attacker.
type Registry struct {
	mu sync.RWMutex
	// attackers[customer][src] = first and last times src attacked customer
	attackers map[netip.Addr]map[uint32]span
	// order is the key set of attackers in address order: the order A5 sums
	// the other customers' coefficients in, so the same registry contents
	// give the same bits whatever order they were recorded in.
	order []netip.Addr
	// alerts[customer] = alerts sorted by detection time
	alerts map[netip.Addr][]ddos.Alert
}

// span is the [first, last] observation interval of one attacker-customer
// pair.
type span struct {
	first, last compact.Instant
}

// activeIn reports whether the observation interval intersects [lo, hi).
func (sp span) activeIn(lo, hi compact.Instant) bool {
	return sp.first.Before(hi) && !sp.last.Before(lo)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		attackers: make(map[netip.Addr]map[uint32]span),
		alerts:    make(map[netip.Addr][]ddos.Alert),
	}
}

// RecordAlert appends an alert to the victim's history. Alerts may arrive
// out of order; the history is kept sorted by detection time.
func (r *Registry) RecordAlert(a ddos.Alert) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := a.Sig.Victim
	s := r.alerts[v]
	s = append(s, a)
	// Insertion into an almost-sorted slice: bubble the new alert back.
	for i := len(s) - 1; i > 0 && s[i].DetectedAt.Before(s[i-1].DetectedAt); i-- {
		s[i], s[i-1] = s[i-1], s[i]
	}
	r.alerts[v] = s
}

// RecordAttacker marks src as an attack source against customer, first
// observed at t. Later observations of the same pair keep the earlier time.
func (r *Registry) RecordAttacker(customer, src netip.Addr, t time.Time) {
	w, ok := compact.IPv4(src)
	if !ok {
		return
	}
	at := compact.At(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.attackers[customer]
	if m == nil {
		m = make(map[uint32]span)
		r.attackers[customer] = m
		i, _ := slices.BinarySearchFunc(r.order, customer, netip.Addr.Compare)
		r.order = slices.Insert(r.order, i, customer)
	}
	old, ok := m[w]
	if !ok {
		m[w] = span{first: at, last: at}
		return
	}
	if at.Before(old.first) {
		old.first = at
	}
	if old.last.Before(at) {
		old.last = at
	}
	m[w] = old
}

// WasAttacker reports whether src had attacked customer strictly before t
// (the A2 membership test).
func (r *Registry) WasAttacker(customer, src netip.Addr, t time.Time) bool {
	w, ok := compact.IPv4(src)
	if !ok {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	sp, ok := r.attackers[customer][w]
	return ok && sp.first.Before(compact.At(t))
}

// MarkAttackers is the bulk A2 membership test of feature extraction: under
// one read lock it ORs bit into marks[i] for every IPv4 source word srcs[i]
// that had attacked customer strictly before t. A customer with no history
// costs one map lookup.
func (r *Registry) MarkAttackers(marks []uint8, bit uint8, customer netip.Addr, srcs []uint32, t time.Time) {
	at := compact.At(t)
	marks = marks[:len(srcs)]
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.attackers[customer]
	if len(m) == 0 {
		return
	}
	for i, w := range srcs {
		if sp, ok := m[w]; ok && sp.first.Before(at) {
			marks[i] |= bit
		}
	}
}

// AttackerCount returns the number of sources known to have attacked
// customer before t.
func (r *Registry) AttackerCount(customer netip.Addr, t time.Time) int {
	at := compact.At(t)
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, sp := range r.attackers[customer] {
		if sp.first.Before(at) {
			n++
		}
	}
	return n
}

// AlertsBefore returns the customer's alerts detected strictly before t,
// oldest first.
func (r *Registry) AlertsBefore(customer netip.Addr, t time.Time) []ddos.Alert {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.alerts[customer]
	i := sort.Search(len(s), func(i int) bool { return !s[i].DetectedAt.Before(t) })
	out := make([]ddos.Alert, i)
	copy(out, s[:i])
	return out
}

// SeverityHistogram returns the A4 feature block as of time t: for each of
// the 6 attack types × 3 severities, the number of alerts against customer
// in the window [t−window, t). Flattened row-major by (type, severity) into
// 18 values.
func (r *Registry) SeverityHistogram(customer netip.Addr, t time.Time, window time.Duration) [int(ddos.NumAttackTypes) * int(ddos.NumSeverities)]float64 {
	var out [int(ddos.NumAttackTypes) * int(ddos.NumSeverities)]float64
	lo := t.Add(-window)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, a := range r.alerts[customer] {
		if a.DetectedAt.Before(lo) || !a.DetectedAt.Before(t) {
			continue
		}
		idx := int(a.Sig.Type)*int(ddos.NumSeverities) + int(a.Severity)
		if idx >= 0 && idx < len(out) {
			out[idx]++
		}
	}
	return out
}

// TransitionMatrix counts, over all customers, how often an attack of type
// i was followed (as the next attack on the same customer, before t) by an
// attack of type j. This is Figure 4(b).
func (r *Registry) TransitionMatrix(t time.Time) [ddos.NumAttackTypes][ddos.NumAttackTypes]int {
	var m [ddos.NumAttackTypes][ddos.NumAttackTypes]int
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, alerts := range r.alerts {
		var prev *ddos.Alert
		for i := range alerts {
			if !alerts[i].DetectedAt.Before(t) {
				break
			}
			if prev != nil {
				m[prev.Sig.Type][alerts[i].Sig.Type]++
			}
			prev = &alerts[i]
		}
	}
	return m
}

// Customers returns all customers with any recorded attacker, in
// deterministic (address) order.
func (r *Registry) Customers() []netip.Addr {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.order)
}

// ClusteringVariant selects one of the three bipartite clustering
// coefficient definitions from Latapy et al. used by the A5 features.
type ClusteringVariant int

// The three variants listed in Table 1 ("dot, min, max").
const (
	ClusteringDot ClusteringVariant = iota // |N(u)∩N(v)| / |N(u)∪N(v)|
	ClusteringMin                          // |N(u)∩N(v)| / min(|N(u)|,|N(v)|)
	ClusteringMax                          // |N(u)∩N(v)| / max(|N(u)|,|N(v)|)
)

// Clusterings computes the three bipartite clustering coefficients of
// customer in the attacker–customer graph restricted to attacker
// observations in [t−window, t): for each variant, the mean pairwise
// coefficient between customer and every other customer sharing at least
// one attacker. Customers sharing no attacker with anyone get 0.
//
// One pass over the other customers' attackers, in customer address order,
// counts each neighborhood and its intersection with customer's in place;
// no set is built. The fixed order makes the sums, and so the result,
// a function of the registry's contents alone.
func (r *Registry) Clusterings(customer netip.Addr, t time.Time, window time.Duration) (dot, minc, maxc float64) {
	lo, hi := compact.At(t.Add(-window)), compact.At(t)
	r.mu.RLock()
	defer r.mu.RUnlock()
	mine := r.attackers[customer]
	nMine := 0
	for _, sp := range mine {
		if sp.activeIn(lo, hi) {
			nMine++
		}
	}
	if nMine == 0 {
		return 0, 0, 0
	}
	n := 0
	for _, other := range r.order {
		if other == customer {
			continue
		}
		nTheirs, inter := 0, 0
		for src, sp := range r.attackers[other] {
			if !sp.activeIn(lo, hi) {
				continue
			}
			nTheirs++
			if m, ok := mine[src]; ok && m.activeIn(lo, hi) {
				inter++
			}
		}
		if inter == 0 {
			continue
		}
		f := float64(inter)
		dot += f / float64(nMine+nTheirs-inter) // Jaccard
		minc += f / float64(min(nMine, nTheirs))
		maxc += f / float64(max(nMine, nTheirs))
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return dot / float64(n), minc / float64(n), maxc / float64(n)
}

// Clustering returns one of the three coefficients of Clusterings.
func (r *Registry) Clustering(customer netip.Addr, t time.Time, window time.Duration, v ClusteringVariant) float64 {
	dot, minc, maxc := r.Clusterings(customer, t, window)
	switch v {
	case ClusteringMin:
		return minc
	case ClusteringMax:
		return maxc
	default:
		return dot
	}
}

// Clone returns a deep copy of the registry. The autoregressive evaluation
// mode uses a clone so Xatu's own test-time detections can be recorded
// without polluting the shared CDet-derived history.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := NewRegistry()
	for c, m := range r.attackers {
		out.attackers[c] = maps.Clone(m)
	}
	out.order = slices.Clone(r.order)
	for c, s := range r.alerts {
		out.alerts[c] = append([]ddos.Alert(nil), s...)
	}
	return out
}
