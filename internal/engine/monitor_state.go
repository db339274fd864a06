package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
)

// Monitor checkpointing. A Monitor restarted cold is blind for Window
// steps per channel; Checkpoint/Restore persist every channel's full
// online state — the per-branch LSTM hidden and cell vectors, pooling
// buffers, the hazard ring, and the mitigation flags — so a restarted
// detector resumes warm, bitwise-identically to an uninterrupted run.
//
// Format (little-endian, versioned; see DESIGN.md §"Fault model"):
//
//	magic "XMC1" | uint16 version | uint32 nchans
//	per channel (sorted by customer, then attack type):
//	  uint8 addrLen + addr bytes (netip marshal)
//	  uint8 attack type | uint8 mitigating
//	  uint8 sinceLen + since bytes (time marshal)
//	  uint32 streamLen + stream checkpoint (core format "XSC1")
//
// Version 1 is a single Monitor. Version 2 is the sharded Engine layout:
// the header is followed by uint32 nshards and one length-prefixed
// version-1 body per shard (see checkpoint.go). Monitor.Restore reads
// only version 1; Engine.Restore reads both.
//
// The model weights are NOT included — they live in Model.Save files; a
// checkpoint restores into a Monitor constructed with equivalent models,
// and the per-stream config digest rejects architecture mismatches.

var monitorCkptMagic = [4]byte{'X', 'M', 'C', '1'}

const (
	monitorCkptVersion = 1
	engineCkptVersion  = 2
)

// Checkpoint serializes the monitor's full detection state to w. Channels
// are written in sorted order, so identical state yields identical bytes.
func (m *Monitor) Checkpoint(w io.Writer) error {
	customers := make([]netip.Addr, 0, len(m.custs))
	for c := range m.custs {
		customers = append(customers, c)
	}
	sort.Slice(customers, func(i, j int) bool { return customers[i].Less(customers[j]) })
	if _, err := w.Write(monitorCkptMagic[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	var hdr [6]byte
	le.PutUint16(hdr[0:], monitorCkptVersion)
	le.PutUint32(hdr[2:], uint32(m.nchans))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	// Every channel record is encoded into one buffer, reused across
	// channels, and written whole.
	var buf []byte
	for _, c := range customers {
		addr, err := c.MarshalBinary()
		if err != nil {
			return fmt.Errorf("xatu: checkpoint customer %v: %w", c, err)
		}
		rec := m.custs[c]
		for atype := range rec {
			ch := &rec[atype]
			if ch.stream == nil {
				continue
			}
			since, err := ch.since.MarshalBinary()
			if err != nil {
				return fmt.Errorf("xatu: checkpoint since time: %w", err)
			}
			mit := byte(0)
			if ch.mitigating {
				mit = 1
			}
			buf = append(buf[:0], byte(len(addr)))
			buf = append(buf, addr...)
			buf = append(buf, byte(atype), mit, byte(len(since)))
			buf = append(buf, since...)
			at := len(buf)
			buf = ch.stream.AppendCheckpoint(append(buf, 0, 0, 0, 0))
			le.PutUint32(buf[at:], uint32(len(buf)-at-4))
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Restore loads a checkpoint written by Checkpoint into this monitor,
// replacing any existing channel state. The monitor must be configured
// with models architecturally identical to the checkpointing one (weights
// come from the model files; only online state is restored). On error the
// monitor's previous state is left untouched.
func (m *Monitor) Restore(r io.Reader) error {
	version, n, err := readMonitorCkptHeader(r)
	if err != nil {
		return err
	}
	if version != monitorCkptVersion {
		if version == engineCkptVersion {
			return fmt.Errorf("xatu: version-%d checkpoint holds multiple shards; restore it through an Engine", version)
		}
		return fmt.Errorf("xatu: unsupported monitor checkpoint version %d", version)
	}
	custs, err := m.readChannels(r, n)
	if err != nil {
		return err
	}
	m.custs, m.nchans = custs, int(n)
	return nil
}

// readMonitorCkptHeader consumes the shared magic + version + count
// header of the XMC1 family.
func readMonitorCkptHeader(r io.Reader) (version uint16, n uint32, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, 0, fmt.Errorf("xatu: reading checkpoint magic: %w", err)
	}
	if magic != monitorCkptMagic {
		return 0, 0, fmt.Errorf("xatu: not a monitor checkpoint (magic %q)", magic)
	}
	le := binary.LittleEndian
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("xatu: reading checkpoint header: %w", err)
	}
	return le.Uint16(hdr[0:]), le.Uint32(hdr[2:]), nil
}

// readChannels parses n channel records into a fresh customer map.
func (m *Monitor) readChannels(r io.Reader, n uint32) (map[netip.Addr]*custChans, error) {
	if n > 1<<22 {
		return nil, fmt.Errorf("xatu: implausible channel count %d", n)
	}
	le := binary.LittleEndian
	// n is not yet backed by any bytes read: size the map for at most a
	// few thousand channels up front, not for whatever the header claims.
	custs := make(map[netip.Addr]*custChans, min(n, 1<<12))
	for i := uint32(0); i < n; i++ {
		var addrLen [1]byte
		if _, err := io.ReadFull(r, addrLen[:]); err != nil {
			return nil, fmt.Errorf("xatu: channel %d: %w", i, err)
		}
		addrBuf := make([]byte, addrLen[0])
		if _, err := io.ReadFull(r, addrBuf); err != nil {
			return nil, fmt.Errorf("xatu: channel %d address: %w", i, err)
		}
		var customer netip.Addr
		if err := customer.UnmarshalBinary(addrBuf); err != nil {
			return nil, fmt.Errorf("xatu: channel %d address: %w", i, err)
		}
		var meta [3]byte // attack type, mitigating, sinceLen
		if _, err := io.ReadFull(r, meta[:]); err != nil {
			return nil, fmt.Errorf("xatu: channel %d meta: %w", i, err)
		}
		at := ddos.AttackType(meta[0])
		if int(meta[0]) >= 6 {
			return nil, fmt.Errorf("xatu: channel %d: unknown attack type %d", i, meta[0])
		}
		sinceBuf := make([]byte, meta[2])
		if _, err := io.ReadFull(r, sinceBuf); err != nil {
			return nil, fmt.Errorf("xatu: channel %d since: %w", i, err)
		}
		var since time.Time
		if err := since.UnmarshalBinary(sinceBuf); err != nil {
			return nil, fmt.Errorf("xatu: channel %d since: %w", i, err)
		}
		var slen [4]byte
		if _, err := io.ReadFull(r, slen[:]); err != nil {
			return nil, fmt.Errorf("xatu: channel %d stream length: %w", i, err)
		}
		streamLen := le.Uint32(slen[:])
		if streamLen > 1<<26 {
			return nil, fmt.Errorf("xatu: channel %d: implausible stream length %d", i, streamLen)
		}
		streamBuf := make([]byte, streamLen)
		if _, err := io.ReadFull(r, streamBuf); err != nil {
			return nil, fmt.Errorf("xatu: channel %d stream: %w", i, err)
		}
		rec := custs[customer]
		if rec == nil {
			rec = new(custChans)
			custs[customer] = rec
		}
		if rec[at].stream != nil {
			return nil, fmt.Errorf("xatu: channel %d (%v/%v): duplicate channel", i, customer, at)
		}
		g, err := m.laneFor(at)
		if err != nil {
			return nil, fmt.Errorf("xatu: channel %d (%v/%v): %w", i, customer, at, err)
		}
		stream, err := g.runner.RestoreStream(bytes.NewReader(streamBuf))
		if err != nil {
			return nil, fmt.Errorf("xatu: channel %d (%v/%v): %w", i, customer, at, err)
		}
		rec[at] = monChan{
			stream:     stream,
			mitigating: meta[1] != 0,
			since:      since,
		}
	}
	return custs, nil
}
