// Package netrpc is the pass-by-value RPC baseline of Figure 8 — a
// length-prefixed binary protocol over a Unix-domain stream socket, standing
// in for the paper's RDMA-based RPC (Herd-style over ConnectX-5) — and the
// wire layer of the serving tier (internal/serving): worker processes serve
// GET/PUT/SCAN frames over it, so it is hardened against exactly the partial
// failures the paper argues a resilient system must absorb. A peer that
// lies in its length header is refused before any allocation, a peer that
// stalls mid-frame is disconnected by deadline instead of pinning a
// goroutine forever, and a handler error travels back as an error frame
// instead of silently tearing the connection down.
//
// It is a same-host transport and nothing else: every peer maps the same
// pool file, so a server listens on a name of its own in the Linux abstract
// socket namespace (no file: a kill -9'd worker leaves nothing behind) and a
// frame costs the serialize / copy through the kernel / deserialize of
// pass-by-value, not a trip through the TCP/IP stack as well.
//
// Wire format, both directions:
//
//	[8B function id][4B payload length][payload bytes]
//
// The top bit of a response's length field is the error flag: when set,
// the payload is the handler's error message and Client.Call returns it as
// a *ServerError. Request lengths must have the top bit clear.
package netrpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// DefaultMaxPayload bounds a frame's payload when Config.MaxPayload is
// zero. Large enough for any serving batch, small enough that a hostile
// or corrupt length header cannot balloon the process.
const DefaultMaxPayload = 16 << 20

// errFlag marks a response payload as an error message. Request lengths
// must keep it clear, which also caps legal payloads below 2 GiB.
const errFlag = 1 << 31

// frameHeader is a frame header's size: function id, then payload length.
const frameHeader = 12

// clientReadBuf sizes a client's receive buffer: a response of up to 16 KiB
// (a 64-record SCAN reply is 4.6 KiB) that has arrived is read in one read.
const clientReadBuf = frameHeader + 16<<10

// maxRetained caps the frame buffer a connection keeps between frames, so
// one 16 MiB frame does not pin 16 MiB on every idle connection after it.
const maxRetained = 64 << 10

// ServerError is a handler (or dispatch) failure reported by the server
// through an error frame. The connection stays up: the call failed, the
// transport did not.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "netrpc: server: " + e.Msg }

// ErrPayloadTooLarge reports a frame whose length header exceeds the
// configured MaxPayload (or has the error flag set on the request side).
var ErrPayloadTooLarge = errors.New("netrpc: frame payload exceeds MaxPayload")

// Config tunes a Server or Client. The zero value means: DefaultMaxPayload,
// no deadlines (every wait can block forever — tests and in-process
// baselines that want the old behavior get it by default).
type Config struct {
	// MaxPayload bounds the payload length this side will accept in one
	// frame, request or response. 0 means DefaultMaxPayload.
	MaxPayload uint32
	// ReadTimeout bounds how long one frame may take to arrive once its
	// header has been read (server), or how long a Call waits for its
	// response (client) — the per-call ceiling. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one frame. 0 disables.
	WriteTimeout time.Duration
	// IdleTimeout (server only) bounds how long a connection may sit
	// between requests before the server drops it. 0 disables: an idle
	// serving connection is normal, only mid-frame stalls are hostile.
	IdleTimeout time.Duration
}

func (c Config) maxPayload() uint32 {
	if c.MaxPayload == 0 {
		return DefaultMaxPayload
	}
	return c.MaxPayload
}

// Handler executes one function over the request payload, returning the
// response payload. A returned error travels to the caller as an error
// frame; the connection keeps serving. payload is the connection's receive
// buffer, reused for the next frame: it is valid only until the handler
// returns, so a handler copies whatever it keeps.
type Handler func(fn uint64, payload []byte) ([]byte, error)

// Server serves pass-by-value calls on an abstract Unix-domain socket.
type Server struct {
	ln      net.Listener
	handler Handler
	cfg     Config
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
}

// NewServer starts a server with the zero Config (no deadlines,
// DefaultMaxPayload).
func NewServer(handler Handler) (*Server, error) {
	return NewServerConfig(handler, Config{})
}

// listeners numbers this process's servers, so each gets a name of its own.
var listeners atomic.Uint64

// NewServerConfig starts a server on a fresh abstract socket name,
// "@cxlshm-netrpc-<pid>-<n>". A name already bound (another pid namespace
// sharing this network namespace) is skipped.
func NewServerConfig(handler Handler, cfg Config) (*Server, error) {
	listen := func() (net.Listener, error) {
		return net.Listen("unix", fmt.Sprintf("@cxlshm-netrpc-%d-%d", os.Getpid(), listeners.Add(1)))
	}
	ln, err := listen()
	for errors.Is(err, syscall.EADDRINUSE) {
		ln, err = listen()
	}
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, handler: handler, cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's dial address: one whitespace-free token.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// end is one side of a connection: its buffered reader and writer, and the
// header and write vector every frame through it reuses (locals would escape
// to the heap, through the connection's io.Writer, on every frame).
type end struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	hdr  [frameHeader]byte // the frame header in flight, either direction
	vec  [2][]byte
	bufs net.Buffers
}

// writeFrame gives one frame to the connection in one write, so the peer
// never wakes for half of it. A frame that fits the writer's free space is
// copied into it and flushed; a larger one goes out as header and payload in
// one vectored write (a writev on a socket), with no copy.
func (e *end) writeFrame(fn uint64, n uint32, payload []byte) error {
	binary.LittleEndian.PutUint64(e.hdr[0:8], fn)
	binary.LittleEndian.PutUint32(e.hdr[8:12], n)
	if frameHeader+len(payload) <= e.w.Available() {
		// Neither write can flush, and an earlier write error sticks in
		// the writer: Flush reports it.
		e.w.Write(e.hdr[:])
		e.w.Write(payload)
		return e.w.Flush()
	}
	e.vec = [2][]byte{e.hdr[:], payload}
	e.bufs = e.vec[:]
	_, err := e.bufs.WriteTo(e.conn)
	e.vec[1] = nil // an unsent tail must not pin the payload
	return err
}

// srvConn is one served connection: its end and the request buffer every
// frame on it reuses.
type srvConn struct {
	end
	buf []byte
}

func (s *Server) serveConn(conn net.Conn) {
	sc := &srvConn{end: end{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}}
	maxPayload := s.cfg.maxPayload()
	for {
		// Waiting for the next request is legitimate idleness, bounded
		// separately (if at all) from the last frame's mid-frame deadline.
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		} else if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Time{})
		}
		if _, err := io.ReadFull(sc.r, sc.hdr[:]); err != nil {
			return
		}
		// The header has arrived: the rest of the frame must follow
		// promptly, or the peer is stalled and gets disconnected instead
		// of pinning this goroutine.
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		fn := binary.LittleEndian.Uint64(sc.hdr[0:8])
		n := binary.LittleEndian.Uint32(sc.hdr[8:12])
		// The length header is untrusted input: refuse it BEFORE the
		// allocation it sizes. Nothing after a hostile header can be
		// trusted to re-frame, so the connection is answered and dropped.
		if n&errFlag != 0 || n > maxPayload {
			s.writeResp(sc, fn, []byte(fmt.Sprintf(
				"frame payload %d exceeds MaxPayload %d", n&^uint32(errFlag), maxPayload)), true)
			return
		}
		if uint32(cap(sc.buf)) < n {
			sc.buf = make([]byte, n)
		}
		payload := sc.buf[:n] // the pass-by-value copy-in
		if _, err := io.ReadFull(sc.r, payload); err != nil {
			return
		}
		resp, err := s.handler(fn, payload)
		if cap(sc.buf) > maxRetained {
			sc.buf = nil
		}
		isErr := err != nil
		if isErr {
			// The handler failed, the transport did not: report the error
			// in-band and keep serving this connection.
			resp = []byte(err.Error())
		} else if uint64(len(resp)) > uint64(maxPayload) {
			resp, isErr = []byte(fmt.Sprintf(
				"handler response %d exceeds MaxPayload %d", len(resp), maxPayload)), true
		}
		if !s.writeResp(sc, fn, resp, isErr) {
			return
		}
	}
}

// writeResp writes one response frame (the copy-out), reporting whether
// the connection is still usable.
func (s *Server) writeResp(sc *srvConn, fn uint64, payload []byte, isErr bool) bool {
	if s.cfg.WriteTimeout > 0 {
		sc.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	n := uint32(len(payload))
	if isErr {
		n |= errFlag
	}
	return sc.writeFrame(fn, n, payload) == nil
}

// Close stops the server and waits for connections to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Client issues pass-by-value calls over one connection. Call is
// serialized internally, so a Client may be shared across goroutines —
// though each caller then waits its turn on the single in-flight frame.
type Client struct {
	mu sync.Mutex
	end
	cfg Config
	err error // first transport error: the stream is out of step for good
}

// Dial connects to a server with the zero Config.
func Dial(addr string) (*Client, error) { return DialConfig(addr, Config{}) }

// DialConfig connects to the server at addr (a Server.Addr). cfg.ReadTimeout
// is the per-call response ceiling: a server that hangs mid-call returns a
// timeout error instead of blocking the caller forever.
func DialConfig(addr string, cfg Config) (*Client, error) {
	conn, err := net.Dial("unix", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, cfg), nil
}

// newClient wraps an established connection. Its reader is sized so that a
// response of up to 16 KiB that has arrived whole is taken in one read.
func newClient(conn net.Conn, cfg Config) *Client {
	return &Client{end: end{conn: conn, r: bufio.NewReaderSize(conn, clientReadBuf), w: bufio.NewWriter(conn)}, cfg: cfg}
}

// Call sends fn with payload and returns the response payload, a fresh
// slice the caller owns. Each call serializes, copies through the kernel,
// and deserializes — the baseline cost structure. A handler failure returns
// a *ServerError and the connection stays usable; a transport error (deadline
// expiry and a mis-framed response included) is final: a late response may
// still be in flight, so every later Call fails with that error, wrapped,
// without touching the socket.
func (c *Client) Call(fn uint64, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, fmt.Errorf("netrpc: connection unusable after: %w", c.err)
	}
	maxPayload := c.cfg.maxPayload()
	if uint64(len(payload)) > uint64(maxPayload) {
		return nil, fmt.Errorf("%w (%d > %d)", ErrPayloadTooLarge, len(payload), maxPayload)
	}
	if c.cfg.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
	if err := c.writeFrame(fn, uint32(len(payload)), payload); err != nil {
		return c.fail(err)
	}
	if c.cfg.ReadTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
	}
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return c.fail(err)
	}
	if got := binary.LittleEndian.Uint64(c.hdr[0:8]); got != fn {
		return c.fail(fmt.Errorf("netrpc: response to function %d, called %d", got, fn))
	}
	n := binary.LittleEndian.Uint32(c.hdr[8:12])
	isErr := n&errFlag != 0
	n &^= uint32(errFlag)
	if n > maxPayload {
		return c.fail(fmt.Errorf("%w (response %d > %d)", ErrPayloadTooLarge, n, maxPayload))
	}
	resp := make([]byte, n) // the one copy-out: the caller owns it
	if _, err := io.ReadFull(c.r, resp); err != nil {
		return c.fail(err)
	}
	if isErr {
		return nil, &ServerError{Msg: string(resp)}
	}
	return resp, nil
}

// fail records the transport error that ends this connection's use.
func (c *Client) fail(err error) ([]byte, error) {
	c.err = err
	return nil, err
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
