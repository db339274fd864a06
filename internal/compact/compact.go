// Package compact holds the pointer-free forms the registries key and fill
// their maps with: an IPv4 address as its 32-bit word and an instant as
// seconds and nanoseconds. A map whose keys and values hold no pointers
// hashes four bytes instead of a 24-byte netip.Addr and is never scanned by
// the garbage collector.
package compact

import (
	"encoding/binary"
	"math"
	"net/netip"
	"time"
)

// IPv4 returns addr as a big-endian word. ok is false for anything that is
// neither IPv4 nor IPv4-mapped IPv6 (the zero Addr included); a mapped
// address yields the word of its IPv4 form.
func IPv4(addr netip.Addr) (word uint32, ok bool) {
	addr = addr.Unmap()
	if !addr.Is4() {
		return 0, false
	}
	b := addr.As4()
	return binary.BigEndian.Uint32(b[:]), true
}

// IPv4Prefix returns p as a masked IPv4 prefix; an IPv4-mapped IPv6
// prefix (::ffff:a.b.c.d/96+n) becomes a.b.c.d/n. ok is false for every
// other prefix, so a mapped prefix never counts its 96 mapping bits as
// IPv4 prefix length.
func IPv4Prefix(p netip.Prefix) (netip.Prefix, bool) {
	if a := p.Addr(); a.Is4In6() && p.Bits() >= 96 {
		p = netip.PrefixFrom(a.Unmap(), p.Bits()-96)
	}
	if !p.IsValid() || !p.Addr().Is4() {
		return netip.Prefix{}, false
	}
	return p.Masked(), true
}

// Addr is the inverse of IPv4.
func Addr(word uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], word)
	return netip.AddrFrom4(b)
}

// Instant is a time.Time's wall-clock instant without its location
// pointer. Unlike UnixNano it is exact for every Time, the zero Time
// included.
type Instant struct {
	sec  int64
	nsec int32
}

// Never is later than the instant of every Time.
var Never = Instant{sec: math.MaxInt64}

// At converts t.
func At(t time.Time) Instant {
	return Instant{sec: t.Unix(), nsec: int32(t.Nanosecond())}
}

// Before reports whether i is strictly earlier than o.
func (i Instant) Before(o Instant) bool {
	return i.sec < o.sec || (i.sec == o.sec && i.nsec < o.nsec)
}

// Time returns the instant as a UTC time.
func (i Instant) Time() time.Time { return time.Unix(i.sec, int64(i.nsec)).UTC() }
