package wildnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"goingwild/internal/lfsr"
)

// The loopback UDP gateway exposes the whole virtual Internet behind one
// real UDP socket, so the scanner's socket handling, timeouts, and rate
// limiting run against the kernel's network stack. Because a single
// loopback listener cannot own four billion addresses, datagrams carry an
// 8-byte tunnel header naming the virtual endpoint:
//
//	bytes 0..3  virtual peer IPv4 address (big endian)
//	bytes 4..5  virtual peer port
//	bytes 6..7  scanner-side virtual port
//
// On the way in, the header names the destination resolver; on the way
// out, the virtual source. This mirrors the paper's own trick of encoding
// the probed target inside the request so responses can be attributed
// (§2.2) — here it is the substrate's addressing, there it was the
// measurement's.

// tunnelHeaderLen is the length of the tunnel header.
const tunnelHeaderLen = 8

// Gateway is the server side: it terminates tunnel datagrams and hands
// each to an in-memory transport over its world, so a probe over the
// socket meets exactly the draws — loss, faults, the attempt counter —
// and gets exactly the responses, in the same order, that it gets in
// memory. What the gateway adds is framing.
type Gateway struct {
	mem  *MemTransport
	conn *net.UDPConn
	wg   sync.WaitGroup

	// peer is the sender of the datagram being served, and frame the
	// buffer its responses are framed in. The read loop is the only
	// sender into mem, and mem runs the receiver on the sender's
	// goroutine, so both belong to the read loop.
	peer  *net.UDPAddr
	frame []byte
}

// StartGateway binds a loopback UDP socket and serves the world on it
// until Close, or until ctx is done.
func StartGateway(ctx context.Context, w *World, v Vantage) (*Gateway, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("wildnet: gateway listen: %w", err)
	}
	// High-rate scans burst far beyond the default socket buffers.
	conn.SetReadBuffer(8 << 20)
	conn.SetWriteBuffer(8 << 20)
	g := &Gateway{mem: NewMemTransport(w, v), conn: conn}
	g.mem.SetReceiver(g.reply)
	g.wg.Add(1)
	go g.serve(ctx)
	return g, nil
}

// Addr returns the gateway's real UDP address.
func (g *Gateway) Addr() *net.UDPAddr { return g.conn.LocalAddr().(*net.UDPAddr) }

// SetTime moves the gateway's simulation clock, which restarts its attempt
// counter (MemTransport.SetTime).
func (g *Gateway) SetTime(t Time) { g.mem.SetTime(t) }

// Close stops the gateway.
func (g *Gateway) Close() error {
	err := g.conn.Close()
	g.wg.Wait()
	return err
}

// serve is the read loop: each tunnel datagram is sent into the
// in-memory transport as a batch of one, its payload lent.
func (g *Gateway) serve(ctx context.Context) {
	defer g.wg.Done()
	buf := make([]byte, 65535)
	var dst [1]uint32
	batch := Batch{Dst: dst[:]}
	for {
		n, peer, err := g.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if n < tunnelHeaderLen {
			continue
		}
		g.peer = peer
		dst[0] = binary.BigEndian.Uint32(buf[0:])
		batch.DstPort = binary.BigEndian.Uint16(buf[4:])
		batch.SrcPort = binary.BigEndian.Uint16(buf[6:])
		batch.Payload = buf[tunnelHeaderLen:n]
		if _, err := g.mem.Send(ctx, &batch); err != nil {
			return // ctx is done
		}
	}
}

// reply is the in-memory transport's receiver: it frames one response
// (tunnel header naming the virtual source, then payload) and writes it
// to the peer whose datagram is being served.
func (g *Gateway) reply(src netip.Addr, srcPort, dstPort uint16, payload []byte) {
	g.frame = binary.BigEndian.AppendUint32(g.frame[:0], lfsr.AddrToU32(src))
	g.frame = binary.BigEndian.AppendUint16(g.frame, srcPort)
	g.frame = binary.BigEndian.AppendUint16(g.frame, dstPort)
	g.frame = append(g.frame, payload...)
	g.conn.WriteToUDP(g.frame, g.peer)
}

// UDPTransport is the client side of the tunnel, implementing Transport
// over a real socket.
type UDPTransport struct {
	conn    *net.UDPConn
	gateway *net.UDPAddr
	recv    func(src netip.Addr, srcPort, dstPort uint16, payload []byte)
	mu      sync.Mutex
	started bool
	wg      sync.WaitGroup
}

// DialGateway connects a transport to a running gateway.
func DialGateway(gw *net.UDPAddr) (*UDPTransport, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("wildnet: transport listen: %w", err)
	}
	conn.SetReadBuffer(8 << 20)
	conn.SetWriteBuffer(8 << 20)
	return &UDPTransport{conn: conn, gateway: gw}, nil
}

// SetReceiver implements Transport and starts the read loop.
func (u *UDPTransport) SetReceiver(f func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.recv = f
	if u.started {
		return
	}
	u.started = true
	u.wg.Add(1)
	go u.readLoop()
}

func (u *UDPTransport) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, _, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if n < tunnelHeaderLen {
			continue
		}
		src := binary.BigEndian.Uint32(buf[0:])
		srcPort := binary.BigEndian.Uint16(buf[4:])
		dstPort := binary.BigEndian.Uint16(buf[6:])
		u.mu.Lock()
		f := u.recv
		u.mu.Unlock()
		if f != nil {
			f(lfsr.U32ToAddr(src), srcPort, dstPort, buf[tunnelHeaderLen:n])
		}
	}
}

// Close implements Transport.
func (u *UDPTransport) Close() error {
	err := u.conn.Close()
	u.wg.Wait()
	return err
}

// framePool holds Send's frame buffers. Senders call Send concurrently,
// so a buffer cannot live on the transport, and a fresh one per call
// would allocate on every batch.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// Send implements Transport: each probe is framed (tunnel header, then
// payload, built here for a template batch) into one pooled buffer
// reused across the batch and written with its own WriteToUDP, so the
// frames leave the socket in batch order. The kernel write itself is not
// interruptible, so the context is honored at the call edge: a sender
// that keeps calling after cancellation gets ctx.Err() back immediately
// instead of queueing more datagrams.
func (u *UDPTransport) Send(ctx context.Context, b *Batch) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	frame := framePool.Get().(*[]byte)
	defer framePool.Put(frame)
	for i, dst := range b.Dst {
		*frame = binary.BigEndian.AppendUint32((*frame)[:0], dst)
		*frame = binary.BigEndian.AppendUint16(*frame, b.DstPort)
		*frame = binary.BigEndian.AppendUint16(*frame, b.srcPort(i))
		*frame = b.appendPayload(*frame, i)
		if _, err := u.conn.WriteToUDP(*frame, u.gateway); err != nil {
			return i, err
		}
	}
	return len(b.Dst), nil
}
