package ingest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
)

// Serve is the UDP read loop: it reads datagrams from pc into the pipeline
// until ctx is canceled or the socket closes. The UDP fast path receives
// without allocating and source names are cached per remote address. A
// full pipeline blocks the loop (the kernel socket buffer absorbs bursts)
// rather than shedding records. Serve does not close the pipeline; call
// Close after Serve returns to flush pending steps.
func (p *Pipeline) Serve(ctx context.Context, pc net.PacketConn) error {
	go func() {
		<-ctx.Done()
		pc.Close()
	}()
	buf := make([]byte, 65535)
	names := make(map[netip.AddrPort]string)
	udp, _ := pc.(*net.UDPConn)
	for {
		var (
			n   int
			src string
			err error
		)
		if udp != nil {
			var ap netip.AddrPort
			n, ap, err = udp.ReadFromUDPAddrPort(buf)
			if err == nil {
				var ok bool
				if src, ok = names[ap]; !ok {
					src = ap.String()
					names[ap] = src
				}
			}
		} else {
			var addr net.Addr
			n, addr, err = pc.ReadFrom(buf)
			if err == nil {
				src = addr.String()
			}
		}
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("ingest: reading datagram: %w", err)
		}
		p.HandlePacket(src, buf[:n])
	}
}
