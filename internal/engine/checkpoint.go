package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sync/atomic"
	"time"
)

// Engine checkpointing: each shard goroutine serializes its own Monitor,
// after every message queued on it before the call — state is only ever
// touched by its owning shard, so the snapshot needs no locks — and the
// per-shard blobs are framed into one file:
//
//	magic "XMC1" | uint16 version=2 | uint32 nshards
//	per shard: uint32 seglen | version-1 Monitor checkpoint bytes
//
// Engine.Restore reads both layouts. The shard count in the file is
// advisory only: every channel record carries its customer address, so
// restore re-partitions all channels by the current engine's stable hash
// (see ShardOf). A checkpoint taken at 16 shards restores onto 4, or onto
// a single-monitor-per-shard layout, with every stream bit-exact — the
// split is done at the record-framing level, the stream payloads are
// never re-encoded. Version-1 files (one bare Monitor, written by older
// xatu-detect builds or Monitor.Checkpoint) restore the same way.

// Checkpoint writes a version-2 multi-shard snapshot to w, holding every
// message submitted before the call. Producers must be quiesced for the
// duration; the alert channel must keep being drained.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.mx != nil {
		start := time.Now()
		defer func() { e.mx.checkpointLatency.Observe(time.Since(start)) }()
	}
	blobs, err := e.shardBlobs()
	if err != nil {
		return err
	}
	return writeEngineCheckpoint(w, blobs)
}

// shardBlobs has every shard serialize its monitor and publish the blob as
// its recovery basis: one fleet barrier.
func (e *Engine) shardBlobs() ([][]byte, error) {
	blobs := make([][]byte, len(e.shards))
	err := e.onShards("checkpoint", func(s *shard) (err error) {
		blobs[s.id], err = e.snapshotShard(s)
		return err
	})
	return blobs, err
}

// CheckpointIncremental writes the most recent per-shard background
// snapshots as a standard version-2 checkpoint — no fleet barrier, no
// drain, producers keep running. Each shard's segment is at most
// Config.CheckpointInterval stale (a shard that has not snapshotted yet
// contributes its empty boot state), so the staleness of the file — and
// restart loss through it — is bounded by the snapshot interval, not the
// run length. Per-customer state is consistent: a customer lives wholly
// inside one shard's segment, and every segment is a complete monitor
// snapshot taken at a message boundary. Restore reads the output exactly
// like a barrier Checkpoint's.
func (e *Engine) CheckpointIncremental(w io.Writer) error {
	segs := make([][]byte, len(e.shards))
	size := 0
	for i, s := range e.shards {
		if sn := s.snap.Load(); sn != nil {
			segs[i] = sn.data
		} else {
			segs[i] = buildMonitorBlob(nil)
		}
		size += len(segs[i])
	}
	e.cfg.Flight.Record("checkpoint", "incremental checkpoint: %d shards, %d bytes", len(segs), size)
	return writeEngineCheckpoint(w, segs)
}

// CheckpointCustomers writes a version-2 checkpoint holding only the
// channels of customers matching pred — the migration segment a cluster
// node streams to a customer's successor. The byte framing is exactly
// Checkpoint's (XMC1-v2, length-prefixed version-1 segments), so Restore
// and RestoreCustomers read the output unchanged; the channel records pass
// through at the framing level, never re-encoded, so the moved streams
// stay bit-exact. Returns the number of channels written. Producers for
// the matching customers should be quiesced or buffered by the caller for
// the duration (the engine-level contract is the same as Checkpoint's).
func (e *Engine) CheckpointCustomers(w io.Writer, pred func(netip.Addr) bool) (int, error) {
	blobs, err := e.shardBlobs()
	if err != nil {
		return 0, err
	}
	total := 0
	for i, blob := range blobs {
		chans, err := blobRawChans(blob)
		if err != nil {
			return 0, fmt.Errorf("xatu: checkpoint shard %d: %w", i, err)
		}
		kept := chans[:0]
		for _, rc := range chans {
			if pred(rc.customer) {
				kept = append(kept, rc)
			}
		}
		total += len(kept)
		blobs[i] = buildMonitorBlob(kept)
	}
	return total, writeEngineCheckpoint(w, blobs)
}

// Restore loads a version-1 (single monitor) or version-2 (multi-shard)
// checkpoint, re-partitioning every channel onto this engine's shards by
// the stable customer hash, in place of every channel the engine held. A
// checkpoint any record of which fails to restore is refused before any
// shard changes. Producers must be quiesced.
func (e *Engine) Restore(r io.Reader) error {
	parts, err := e.incoming(r, nil)
	if err != nil {
		return err
	}
	if _, err := e.rewrite(parts, func(netip.Addr) bool { return true }); err != nil {
		return err
	}
	e.cfg.Flight.Record("restore", "restored %d channels onto %d shards", countChans(parts), len(e.shards))
	return nil
}

// RestoreCustomers merges the channels of a checkpoint (any layout
// Restore accepts, typically a CheckpointCustomers segment) into the
// running engine: existing channels of the incoming customers are
// replaced wholesale, every other customer's state is untouched, and the
// incoming records are re-partitioned onto this engine's shards by the
// stable hash. pred, when non-nil, filters which incoming customers are
// absorbed (a migration target passes "owned by me under the current
// routing table" so a source can broadcast one segment to many
// successors). Each shard's merge runs atomically on the shard's own
// goroutine, so steps concurrently submitted for non-moving customers are
// never lost or applied to stale state. A checkpoint any record of which
// fails to restore is refused before any shard changes. Returns the
// number of channels absorbed.
func (e *Engine) RestoreCustomers(r io.Reader, pred func(netip.Addr) bool) (int, error) {
	parts, err := e.incoming(r, pred)
	if err != nil {
		return 0, err
	}
	n := countChans(parts)
	if n == 0 {
		return 0, nil
	}
	owners := make(map[netip.Addr]bool)
	for _, part := range parts {
		for _, rc := range part {
			owners[rc.customer] = true
		}
	}
	if _, err := e.rewrite(parts, func(c netip.Addr) bool { return owners[c] }); err != nil {
		return 0, err
	}
	return n, nil
}

// RemoveCustomers drops every channel whose customer matches pred — the
// source side of a completed migration. Each shard's filter runs
// atomically on the shard goroutine. Returns the number of channels
// removed.
func (e *Engine) RemoveCustomers(pred func(netip.Addr) bool) (int, error) {
	return e.rewrite(nil, pred)
}

// incoming reads a checkpoint and partitions the channel records pred
// accepts (nil = every record) onto this engine's shards by the stable
// hash. Every shard's part is restored into a scratch monitor off to the
// side, so a file that fails anywhere is refused whole, before any shard
// changes.
func (e *Engine) incoming(r io.Reader, pred func(netip.Addr) bool) ([][]rawChan, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xatu: reading checkpoint: %w", err)
	}
	segs, err := checkpointSegments(data)
	if err != nil {
		return nil, err
	}
	parts := make([][]rawChan, len(e.shards))
	for i, seg := range segs {
		chans, err := scanMonitorBody(seg)
		if err != nil {
			return nil, fmt.Errorf("xatu: checkpoint segment %d: %w", i, err)
		}
		for _, rc := range chans {
			if pred == nil || pred(rc.customer) {
				sh := shardOf(rc.customer, len(e.shards))
				parts[sh] = append(parts[sh], rc)
			}
		}
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if _, err := e.rebuild(part); err != nil {
			return nil, fmt.Errorf("xatu: restoring shard %d: %w", i, err)
		}
	}
	return parts, nil
}

// rewrite runs on every shard: it keeps the shard's channel records that
// drop does not match, appends the shard's part of add (nil = nothing),
// and rebuilds the monitor from them. A shard with nothing to change keeps
// its monitor. Returns the number of records dropped.
func (e *Engine) rewrite(add [][]rawChan, drop func(netip.Addr) bool) (int, error) {
	var dropped atomic.Int64
	err := e.onShards("rewrite", func(s *shard) error {
		var in []rawChan
		if add != nil {
			in = add[s.id]
		}
		cur, err := monitorRawChans(s.mon)
		if err != nil {
			return err
		}
		kept := cur[:0]
		for _, rc := range cur {
			if !drop(rc.customer) {
				kept = append(kept, rc)
			}
		}
		n := len(cur) - len(kept)
		if n == 0 && len(in) == 0 {
			return nil
		}
		mon, err := e.rebuild(append(kept, in...))
		if err != nil {
			return err
		}
		e.replace(s, mon)
		dropped.Add(int64(n))
		return nil
	})
	return int(dropped.Load()), err
}

// rebuild restores channel records into a fresh monitor.
func (e *Engine) rebuild(chans []rawChan) (*Monitor, error) {
	mon, err := NewMonitor(e.cfg.Monitor)
	if err != nil {
		return nil, err
	}
	if err := mon.Restore(bytes.NewReader(buildMonitorBlob(chans))); err != nil {
		return nil, err
	}
	return mon, nil
}

// countChans counts the records of a partition.
func countChans(parts [][]rawChan) int {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	return n
}

// monitorRawChans serializes a monitor and lifts its channel records at
// the framing level.
func monitorRawChans(m *Monitor) ([]rawChan, error) {
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		return nil, err
	}
	return blobRawChans(buf.Bytes())
}

// blobRawChans splits a full version-1 monitor blob (magic + header +
// channels) into its channel records.
func blobRawChans(blob []byte) ([]rawChan, error) {
	r := bytes.NewReader(blob)
	version, n, err := readMonitorCkptHeader(r)
	if err != nil {
		return nil, err
	}
	if version != monitorCkptVersion {
		return nil, fmt.Errorf("xatu: unexpected monitor blob version %d", version)
	}
	seg := make([]byte, 0, 4+r.Len())
	seg = binary.LittleEndian.AppendUint32(seg, n)
	seg = append(seg, blob[len(blob)-r.Len():]...)
	return scanMonitorBody(seg)
}

// writeEngineCheckpoint frames per-shard version-1 monitor blobs into the
// version-2 engine checkpoint layout.
func writeEngineCheckpoint(w io.Writer, segs [][]byte) error {
	le := binary.LittleEndian
	hdr := make([]byte, 0, 10)
	hdr = append(hdr, monitorCkptMagic[:]...)
	hdr = le.AppendUint16(hdr, engineCkptVersion)
	hdr = le.AppendUint32(hdr, uint32(len(segs)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for i := range segs {
		var seglen [4]byte
		le.PutUint32(seglen[:], uint32(len(segs[i])))
		if _, err := w.Write(seglen[:]); err != nil {
			return err
		}
		if _, err := w.Write(segs[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkpointSegments splits a checkpoint file into version-1 monitor
// bodies (magic + header stripped): one per shard for version 2, a single
// segment for a bare version-1 file.
func checkpointSegments(data []byte) ([][]byte, error) {
	r := bytes.NewReader(data)
	version, n, err := readMonitorCkptHeader(r)
	if err != nil {
		return nil, err
	}
	body := data[len(data)-r.Len():]
	switch version {
	case monitorCkptVersion:
		// A bare Monitor checkpoint: the body is one segment holding n
		// channels. Reconstruct the channel count prefix the scanner wants.
		seg := make([]byte, 0, 4+len(body))
		seg = binary.LittleEndian.AppendUint32(seg, n)
		seg = append(seg, body...)
		return [][]byte{seg}, nil
	case engineCkptVersion:
		if n > 1<<16 {
			return nil, fmt.Errorf("xatu: implausible shard count %d", n)
		}
		segs := make([][]byte, 0, n)
		for i := uint32(0); i < n; i++ {
			var seglen [4]byte
			if _, err := io.ReadFull(r, seglen[:]); err != nil {
				return nil, fmt.Errorf("xatu: segment %d length: %w", i, err)
			}
			sl := binary.LittleEndian.Uint32(seglen[:])
			if uint64(sl) > uint64(r.Len()) {
				return nil, fmt.Errorf("xatu: segment %d length %d exceeds remaining %d", i, sl, r.Len())
			}
			seg := make([]byte, sl)
			if _, err := io.ReadFull(r, seg); err != nil {
				return nil, fmt.Errorf("xatu: segment %d: %w", i, err)
			}
			// Each segment is a full version-1 checkpoint; strip its header.
			sr := bytes.NewReader(seg)
			sv, sn, err := readMonitorCkptHeader(sr)
			if err != nil {
				return nil, fmt.Errorf("xatu: segment %d: %w", i, err)
			}
			if sv != monitorCkptVersion {
				return nil, fmt.Errorf("xatu: segment %d: unexpected inner version %d", i, sv)
			}
			inner := make([]byte, 0, 4+sr.Len())
			inner = binary.LittleEndian.AppendUint32(inner, sn)
			inner = append(inner, seg[len(seg)-sr.Len():]...)
			segs = append(segs, inner)
		}
		if r.Len() != 0 {
			return nil, fmt.Errorf("xatu: %d trailing bytes after last segment", r.Len())
		}
		return segs, nil
	default:
		return nil, fmt.Errorf("xatu: unsupported checkpoint version %d", version)
	}
}

// rawChan is one channel record lifted out of a checkpoint without
// decoding its stream payload: just enough framing to route it.
type rawChan struct {
	customer netip.Addr
	// raw is the complete channel record (addr through stream bytes),
	// byte-identical to what Checkpoint wrote.
	raw []byte
}

// scanMonitorBody walks a segment (uint32 nchans + channel records) at
// the framing level, returning each record with its routing address.
func scanMonitorBody(seg []byte) ([]rawChan, error) {
	le := binary.LittleEndian
	if len(seg) < 4 {
		return nil, fmt.Errorf("truncated segment (%d bytes)", len(seg))
	}
	n := le.Uint32(seg)
	if n > 1<<22 {
		return nil, fmt.Errorf("implausible channel count %d", n)
	}
	body := seg[4:]
	chans := make([]rawChan, 0, min(int(n), len(body)/8)) // a record is ≥ 8 bytes
	off := 0
	need := func(want int, what string) error {
		if off+want > len(body) {
			return fmt.Errorf("channel %d: truncated %s at offset %d", len(chans), what, off)
		}
		return nil
	}
	for i := uint32(0); i < n; i++ {
		start := off
		if err := need(1, "address length"); err != nil {
			return nil, err
		}
		addrLen := int(body[off])
		if err := need(1+addrLen+3, "address + meta"); err != nil {
			return nil, err
		}
		var customer netip.Addr
		if err := customer.UnmarshalBinary(body[off+1 : off+1+addrLen]); err != nil {
			return nil, fmt.Errorf("channel %d address: %w", i, err)
		}
		off += 1 + addrLen
		sinceLen := int(body[off+2])
		off += 3
		if err := need(sinceLen+4, "since + stream length"); err != nil {
			return nil, err
		}
		off += sinceLen
		streamLen := int(le.Uint32(body[off:]))
		off += 4
		if streamLen > 1<<26 {
			return nil, fmt.Errorf("channel %d: implausible stream length %d", i, streamLen)
		}
		if err := need(streamLen, "stream"); err != nil {
			return nil, err
		}
		off += streamLen
		chans = append(chans, rawChan{customer: customer, raw: body[start:off]})
	}
	if off != len(body) {
		return nil, fmt.Errorf("%d trailing bytes after channel %d", len(body)-off, n)
	}
	return chans, nil
}

// buildMonitorBlob reassembles channel records into a version-1 Monitor
// checkpoint Monitor.Restore accepts. Record bytes pass through verbatim,
// so streams survive any number of split/merge cycles bit-exactly.
func buildMonitorBlob(chans []rawChan) []byte {
	le := binary.LittleEndian
	size := 10
	for _, rc := range chans {
		size += len(rc.raw)
	}
	blob := make([]byte, 0, size)
	blob = append(blob, monitorCkptMagic[:]...)
	blob = le.AppendUint16(blob, monitorCkptVersion)
	blob = le.AppendUint32(blob, uint32(len(chans)))
	for _, rc := range chans {
		blob = append(blob, rc.raw...)
	}
	return blob
}
