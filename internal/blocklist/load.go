package blocklist

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"time"

	"github.com/xatu-go/xatu/internal/compact"
)

// LoadText reads blocklist entries from r into reg. The format is one entry
// per line:
//
//	category,address-or-cidr,listed-at-RFC3339[,ttl]
//
// e.g.
//
//	bot,11.22.33.0/24,2019-04-01T00:00:00Z,720h
//	ddos-source,45.1.2.3,2019-04-20T12:00:00Z
//
// Blank lines and lines starting with '#' are ignored. CIDR prefixes
// broader than /24 are expanded into their /24 subnets (capped at /16 to
// prevent pathological expansion). Returns the number of /24 entries added.
func LoadText(r io.Reader, reg *Registry) (int, error) {
	sc := bufio.NewScanner(r)
	n := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 3 || len(parts) > 4 {
			return n, fmt.Errorf("blocklist: line %d: want 3 or 4 fields, got %d", lineNo, len(parts))
		}
		cat, ok := categoryBySlug(strings.TrimSpace(parts[0]))
		if !ok {
			return n, fmt.Errorf("blocklist: line %d: unknown category %q", lineNo, parts[0])
		}
		listedAt, err := time.Parse(time.RFC3339, strings.TrimSpace(parts[2]))
		if err != nil {
			return n, fmt.Errorf("blocklist: line %d: bad timestamp: %v", lineNo, err)
		}
		// WriteText writes listing times in UTC with a four-digit year; an
		// offset that moves one out of 0000–9999 could not be read back.
		if y := listedAt.UTC().Year(); y < 0 || y > 9999 {
			return n, fmt.Errorf("blocklist: line %d: timestamp outside years 0000-9999 in UTC", lineNo)
		}
		var ttl time.Duration
		if len(parts) == 4 {
			ttl, err = time.ParseDuration(strings.TrimSpace(parts[3]))
			if err != nil {
				return n, fmt.Errorf("blocklist: line %d: bad ttl: %v", lineNo, err)
			}
		}
		target := strings.TrimSpace(parts[1])
		if strings.Contains(target, "/") {
			p, err := netip.ParsePrefix(target)
			if err != nil {
				return n, fmt.Errorf("blocklist: line %d: bad prefix: %v", lineNo, err)
			}
			added, err := addPrefix(reg, cat, p, listedAt, ttl)
			if err != nil {
				return n, fmt.Errorf("blocklist: line %d: %v", lineNo, err)
			}
			n += added
			continue
		}
		addr, err := netip.ParseAddr(target)
		if err != nil {
			return n, fmt.Errorf("blocklist: line %d: bad address: %v", lineNo, err)
		}
		reg.Add(cat, addr, listedAt, ttl)
		n++
	}
	return n, sc.Err()
}

// addPrefix expands a prefix into its /24 subnets.
func addPrefix(reg *Registry, cat Category, p netip.Prefix, listedAt time.Time, ttl time.Duration) (int, error) {
	p4, ok := compact.IPv4Prefix(p)
	if !ok {
		return 0, fmt.Errorf("only IPv4 prefixes supported, got %v", p)
	}
	p = p4
	if p.Bits() >= 24 {
		reg.Add(cat, p.Addr(), listedAt, ttl)
		return 1, nil
	}
	if p.Bits() < 16 {
		return 0, fmt.Errorf("prefix %v broader than /16 refused", p)
	}
	base := p.Addr().As4()
	count := 1 << (24 - p.Bits())
	for i := 0; i < count; i++ {
		a := base
		a[1] = base[1] + byte(i>>8)
		a[2] = base[2] + byte(i&0xFF)
		reg.Add(cat, netip.AddrFrom4(a), listedAt, ttl)
	}
	return count, nil
}

// categoryBySlug resolves a category name.
func categoryBySlug(slug string) (Category, bool) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == slug {
			return c, true
		}
	}
	return 0, false
}

// WriteText serializes the registry in LoadText's format, deterministically
// ordered (category, then subnet). Permanent entries omit the ttl field.
// Listing times keep their fractional seconds, so LoadText reads back the
// same instants.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	keys := r.subnets.Words(make([]uint32, 0, r.subnets.Len()))
	slices.Sort(keys)
	bw := bufio.NewWriter(w)
	for c := Category(0); c < NumCategories; c++ {
		for _, k := range keys {
			for i, _ := r.subnets.Get(k); i >= 0; i = r.listings[i].next {
				if e := r.listings[i]; e.cat == uint8(c) {
					listed := e.listedAt.Time()
					if e.expiresAt == compact.Never {
						fmt.Fprintf(bw, "%s,%s/24,%s\n", c, compact.Addr(k), listed.Format(time.RFC3339Nano))
					} else {
						fmt.Fprintf(bw, "%s,%s/24,%s,%s\n", c, compact.Addr(k),
							listed.Format(time.RFC3339Nano), e.expiresAt.Time().Sub(listed))
					}
				}
			}
		}
	}
	return bw.Flush()
}
