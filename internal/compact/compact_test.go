package compact

import (
	"net/netip"
	"testing"
	"time"
)

func TestIPv4(t *testing.T) {
	for s, want := range map[string]uint32{"0.0.0.0": 0, "11.22.33.44": 11<<24 | 22<<16 | 33<<8 | 44, "255.255.255.255": 1<<32 - 1} {
		a := netip.MustParseAddr(s)
		if w, ok := IPv4(a); !ok || w != want || Addr(w) != a {
			t.Errorf("IPv4(%s) = %#x, %v; Addr gives %v", s, w, ok, Addr(w))
		}
		if w, ok := IPv4(netip.AddrFrom16(a.As16())); !ok || w != want {
			t.Errorf("4-in-6 form of %s = %#x, %v", s, w, ok)
		}
	}
	for _, a := range []netip.Addr{{}, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("::1")} {
		if _, ok := IPv4(a); ok {
			t.Errorf("IPv4(%v) must not be ok", a)
		}
	}
}

// TestInstantOrdersLikeTime: Before agrees with time.Time.Before on every
// pair, including the zero Time and years UnixNano cannot represent.
func TestInstantOrdersLikeTime(t *testing.T) {
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	times := []time.Time{
		{}, time.Date(1500, 1, 1, 0, 0, 0, 1, time.UTC), time.Unix(0, 0), time.Unix(0, -1),
		base, base.Add(1), base.Add(time.Second - 1), base.Add(time.Second),
		base.In(time.FixedZone("x", 3600)), time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for _, a := range times {
		if got := At(a).Time(); !got.Equal(a) {
			t.Errorf("At(%v).Time() = %v", a, got)
		}
		if !At(a).Before(Never) || Never.Before(At(a)) {
			t.Errorf("%v must be before Never", a)
		}
		for _, b := range times {
			if got, want := At(a).Before(At(b)), a.Before(b); got != want {
				t.Errorf("At(%v).Before(At(%v)) = %v, want %v", a, b, got, want)
			}
		}
	}
}
