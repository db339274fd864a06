package attackhist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"time"

	"github.com/xatu-go/xatu/internal/compact"
	"github.com/xatu-go/xatu/internal/ddos"
)

// The persistence format is JSON lines: a header line, then one line per
// attacker-pair and one per alert. It is human-inspectable and append-
// friendly, which suits a registry that only grows during deployment.

type persistHeader struct {
	Format string `json:"format"`
}

type persistAttacker struct {
	Kind     string    `json:"k"` // "attacker"
	Customer string    `json:"customer"`
	Src      string    `json:"src"`
	First    time.Time `json:"first"`
	Last     time.Time `json:"last"`
}

type persistAlert struct {
	Kind        string    `json:"k"` // "alert"
	Victim      string    `json:"victim"`
	Type        int       `json:"type"`
	Severity    int       `json:"severity"`
	Source      string    `json:"source"`
	DetectedAt  time.Time `json:"detected"`
	MitigatedAt time.Time `json:"mitigated"`
}

const persistFormat = "xatu-attackhist-1"

// Save serializes the registry. The output is deterministic (customers
// and sources in address order) so snapshots diff cleanly.
func (r *Registry) Save(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(persistHeader{Format: persistFormat}); err != nil {
		return err
	}
	for _, customer := range r.order {
		srcs := make([]uint32, 0, len(r.attackers[customer]))
		for s := range r.attackers[customer] {
			srcs = append(srcs, s)
		}
		slices.Sort(srcs)
		for _, s := range srcs {
			sp := r.attackers[customer][s]
			if err := enc.Encode(persistAttacker{
				Kind: "attacker", Customer: customer.String(), Src: compact.Addr(s).String(),
				First: sp.first.Time(), Last: sp.last.Time(),
			}); err != nil {
				return err
			}
		}
	}
	for _, customer := range r.alertCustomersLocked() {
		for _, a := range r.alerts[customer] {
			if err := enc.Encode(persistAlert{
				Kind: "alert", Victim: a.Sig.Victim.String(), Type: int(a.Sig.Type),
				Severity: int(a.Severity), Source: a.Source,
				DetectedAt: a.DetectedAt, MitigatedAt: a.MitigatedAt,
			}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save into the registry, merging with
// any existing contents.
func (r *Registry) Load(rd io.Reader) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return fmt.Errorf("attackhist: empty snapshot")
	}
	var hdr persistHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Format != persistFormat {
		return fmt.Errorf("attackhist: unrecognized snapshot header")
	}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		var kind struct {
			Kind string `json:"k"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			return fmt.Errorf("attackhist: line %d: %v", lineNo, err)
		}
		switch kind.Kind {
		case "attacker":
			var pa persistAttacker
			if err := json.Unmarshal(sc.Bytes(), &pa); err != nil {
				return fmt.Errorf("attackhist: line %d: %v", lineNo, err)
			}
			customer, err := netip.ParseAddr(pa.Customer)
			if err != nil {
				return fmt.Errorf("attackhist: line %d: %v", lineNo, err)
			}
			src, err := netip.ParseAddr(pa.Src)
			if err != nil {
				return fmt.Errorf("attackhist: line %d: %v", lineNo, err)
			}
			// Save writes attacker times in UTC, and a JSON time has a
			// four-digit year: an offset that moves one out of 0000–9999
			// would load a snapshot that cannot be saved.
			for _, at := range []time.Time{pa.First, pa.Last} {
				if y := at.UTC().Year(); y < 0 || y > 9999 {
					return fmt.Errorf("attackhist: line %d: %v is outside years 0000-9999 in UTC", lineNo, at)
				}
			}
			r.RecordAttacker(customer, src, pa.First)
			if pa.Last.After(pa.First) {
				r.RecordAttacker(customer, src, pa.Last)
			}
		case "alert":
			var pl persistAlert
			if err := json.Unmarshal(sc.Bytes(), &pl); err != nil {
				return fmt.Errorf("attackhist: line %d: %v", lineNo, err)
			}
			victim, err := netip.ParseAddr(pl.Victim)
			if err != nil {
				return fmt.Errorf("attackhist: line %d: %v", lineNo, err)
			}
			if pl.Type < 0 || pl.Type >= int(ddos.NumAttackTypes) {
				return fmt.Errorf("attackhist: line %d: bad attack type %d", lineNo, pl.Type)
			}
			r.RecordAlert(ddos.Alert{
				Sig:         ddos.SignatureFor(ddos.AttackType(pl.Type), victim),
				DetectedAt:  pl.DetectedAt,
				MitigatedAt: pl.MitigatedAt,
				Severity:    ddos.Severity(pl.Severity),
				Source:      pl.Source,
			})
		default:
			return fmt.Errorf("attackhist: line %d: unknown record kind %q", lineNo, kind.Kind)
		}
	}
	return sc.Err()
}

// alertCustomersLocked returns alert-map customers in address order.
func (r *Registry) alertCustomersLocked() []netip.Addr {
	out := make([]netip.Addr, 0, len(r.alerts))
	for c := range r.alerts {
		out = append(out, c)
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}
