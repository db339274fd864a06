package routing

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
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

// WriteText serializes the table in LoadText's format, walking the trie in
// prefix order.
func (t *Table) WriteText(w io.Writer) error {
	return writeNode(w, t.root, netip.AddrFrom4([4]byte{}), 0)
}

func writeNode(w io.Writer, n *node, addr netip.Addr, depth int) error {
	if n == nil {
		return nil
	}
	if n.route != nil {
		if _, err := fmt.Fprintf(w, "%s %d\n", n.route.Prefix, n.route.Origin); err != nil {
			return err
		}
	}
	if err := writeNode(w, n.child[0], addr, depth+1); err != nil {
		return err
	}
	if n.child[1] == nil {
		return nil // a /32 leaf: depth 32 has no bit to set
	}
	b := addr.As4()
	b[depth/8] |= 1 << (7 - uint(depth%8))
	return writeNode(w, n.child[1], netip.AddrFrom4(b), depth+1)
}
