package routing

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"strings"
)

// LoadText reads a routing table from r, one route per line:
//
//	prefix origin-asn
//
// e.g.
//
//	11.0.0.0/14 64500
//	23.4.0.0/16 64501
//
// Blank lines and '#' comments are ignored. This stands in for loading a
// RouteViews/RIS dump for the A3 spoof checks (§5.1).
func LoadText(r io.Reader) (*Table, error) {
	t := &Table{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("routing: line %d: want 'prefix asn', got %q", lineNo, line)
		}
		p, err := netip.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("routing: line %d: %v", lineNo, err)
		}
		asn, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("routing: line %d: bad asn: %v", lineNo, err)
		}
		if err := t.Insert(p, ASN(asn)); err != nil {
			return nil, fmt.Errorf("routing: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteText serializes the table in LoadText's format, in prefix order:
// by address, a shorter prefix before the longer ones it holds.
func (t *Table) WriteText(w io.Writer) error {
	routes := slices.Clone(t.routes)
	slices.SortFunc(routes, func(a, b Route) int {
		if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
			return c
		}
		return a.Prefix.Bits() - b.Prefix.Bits()
	})
	for _, r := range routes {
		if _, err := fmt.Fprintf(w, "%s %d\n", r.Prefix, r.Origin); err != nil {
			return err
		}
	}
	return nil
}
