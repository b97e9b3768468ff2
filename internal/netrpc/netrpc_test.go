package netrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func echo(fn uint64, payload []byte) ([]byte, error) {
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

func TestCallRoundTrip(t *testing.T) {
	s, err := NewServer(echo)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, size := range []int{0, 1, 64, 4096, 1 << 16} {
		payload := bytes.Repeat([]byte{0xAB}, size)
		resp, err := c.Call(7, payload)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(resp, payload) {
			t.Fatalf("size %d: echo mismatch", size)
		}
	}
}

func TestManyClientsConcurrently(t *testing.T) {
	s, err := NewServer(func(fn uint64, p []byte) ([]byte, error) {
		out := make([]byte, 8)
		out[0] = byte(fn)
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				resp, err := c.Call(uint64(g), []byte("ping"))
				if err != nil || resp[0] != byte(g) {
					t.Errorf("call: %v %v", resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, err := NewServer(echo)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(1, []byte("x")); err == nil {
		t.Fatal("call against closed server succeeded")
	}
	c.Close()
	// Double close is fine.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHostileFrameLengthRejected is the regression test for the unbounded
// server-side allocation: a peer whose length header claims an absurd
// payload must be refused before the allocation it sizes, with an error
// frame, and the server must keep serving other connections.
func TestHostileFrameLengthRejected(t *testing.T) {
	s, err := NewServerConfig(echo, Config{MaxPayload: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, hostile := range []uint32{1 << 17, 0xFFFFFFF0, errFlag | 4} {
		conn := dialRaw(t, s)
		var hdr [12]byte
		binary.LittleEndian.PutUint64(hdr[0:8], 1)
		binary.LittleEndian.PutUint32(hdr[8:12], hostile)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		// The server answers with an error frame without waiting for the
		// claimed bytes (which will never come), then drops the connection.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var resp [12]byte
		if _, err := readFull(conn, resp[:]); err != nil {
			t.Fatalf("length %#x: no error frame: %v", hostile, err)
		}
		n := binary.LittleEndian.Uint32(resp[8:12])
		if n&errFlag == 0 {
			t.Fatalf("length %#x: response not flagged as error", hostile)
		}
		msg := make([]byte, n&^uint32(errFlag))
		if _, err := readFull(conn, msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(msg, []byte("MaxPayload")) {
			t.Fatalf("error frame %q does not name the limit", msg)
		}
		conn.Close()
	}

	// The server survived the hostile peers: a well-behaved client works.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(7, []byte("still alive")); err != nil || string(resp) != "still alive" {
		t.Fatalf("echo after hostile frames: %q, %v", resp, err)
	}
}

// TestClientRejectsOversizedResponse mirrors the bound on the client side.
func TestClientRejectsOversizedResponse(t *testing.T) {
	s, err := NewServer(func(fn uint64, p []byte) ([]byte, error) {
		return make([]byte, 1<<12), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialConfig(s.Addr(), Config{MaxPayload: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An oversized request is refused locally, before any I/O, so it leaves
	// the connection usable...
	if _, err := c.Call(1, make([]byte, 1<<11)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized request error = %v, want ErrPayloadTooLarge", err)
	}
	// ...while an oversized response is refused with its payload still on
	// the wire, which ends it.
	_, first := c.Call(1, nil)
	if !errors.Is(first, ErrPayloadTooLarge) {
		t.Fatalf("oversized response error = %v, want ErrPayloadTooLarge", first)
	}
	if _, err := c.Call(1, nil); !errors.Is(err, first) || err == first {
		t.Fatalf("call after a mis-framed response = %v, want the first error, wrapped", err)
	}
}

// TestHandlerErrorSurfaces is the regression test for handler errors
// tearing down the connection: the client must see the handler's message
// as a *ServerError, not a bare io.EOF, and the same connection must keep
// working afterwards.
func TestHandlerErrorSurfaces(t *testing.T) {
	s, err := NewServer(func(fn uint64, p []byte) ([]byte, error) {
		if fn == 13 {
			return nil, fmt.Errorf("unlucky function %d", fn)
		}
		return echo(fn, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(13, []byte("boom"))
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("handler error came back as %T %v, want *ServerError", err, err)
	}
	if se.Msg != "unlucky function 13" {
		t.Fatalf("server error message %q lost the handler's text", se.Msg)
	}
	// The connection survived the failed call.
	if resp, err := c.Call(7, []byte("next call")); err != nil || string(resp) != "next call" {
		t.Fatalf("call after handler error: %q, %v", resp, err)
	}
}

// TestServerDeadlineDropsStalledPeer is the regression test for a hung
// peer pinning a handler goroutine: a connection that sends a header and
// then stalls mid-frame must be disconnected by the read deadline.
func TestServerDeadlineDropsStalledPeer(t *testing.T) {
	s, err := NewServerConfig(echo, Config{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn := dialRaw(t, s)
	defer conn.Close()
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 1)
	binary.LittleEndian.PutUint32(hdr[8:12], 100) // promise 100 bytes...
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// ...and never send them. The server must hang up on its own — a read
	// on our side observes the close well before any test timeout.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Fatal("server answered a half-frame instead of dropping the stalled peer")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server still holding the stalled connection after its read deadline")
	}
}

// TestServerIdleTimeout: with IdleTimeout set, a connection that goes
// quiet between requests is dropped; without it, idling is fine.
func TestServerIdleTimeout(t *testing.T) {
	s, err := NewServerConfig(echo, Config{IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := dialRaw(t, s)
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Fatal("idle connection not dropped")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server still holding the idle connection after IdleTimeout")
	}
}

// TestClientCallTimeout: a server that hangs mid-call must not block the
// caller forever — the client's ReadTimeout is the per-call ceiling.
func TestClientCallTimeout(t *testing.T) {
	block := make(chan struct{})
	s, err := NewServer(func(fn uint64, p []byte) ([]byte, error) {
		<-block // wedge the handler: the response never comes
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Release the wedged handler BEFORE s.Close runs (defers are LIFO), or
	// Close would wait forever on the handler goroutine.
	defer close(block)
	c, err := DialConfig(s.Addr(), Config{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(1, []byte("x"))
	if err == nil {
		t.Fatal("call against a wedged server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("wedged-server error = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("call took %v to time out", elapsed)
	}
}

// TestClientErrorIsSticky is the regression test for a Client that kept
// answering after a transport error — with the wrong reply: call 1 times
// out, its late response arrives, and call 2 must fail instead of
// returning it.
func TestClientErrorIsSticky(t *testing.T) {
	var calls atomic.Int32
	late := make(chan struct{})
	s, err := NewServer(func(fn uint64, p []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond) // past the client's ReadTimeout
			defer close(late)
		}
		return echo(fn, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialConfig(s.Addr(), Config{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, first := c.Call(7, []byte("payload A"))
	var nerr net.Error
	if !errors.As(first, &nerr) || !nerr.Timeout() {
		t.Fatalf("call 1 error = %v, want a net timeout", first)
	}
	<-late
	time.Sleep(20 * time.Millisecond) // let A's reply reach the socket
	resp, err := c.Call(7, []byte("payload B"))
	if err == nil {
		t.Fatalf("call 2 on a timed-out client returned %q", resp)
	}
	if !errors.Is(err, first) {
		t.Fatalf("call 2 error = %v, want call 1's error wrapped", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want 1: the poisoned client touched the socket", n)
	}
}

// TestClientRejectsWrongFunctionEcho: a response that echoes another
// function id is some other call's reply. It is a protocol error, and final.
func TestClientRejectsWrongFunctionEcho(t *testing.T) {
	ln, err := net.Listen("unix", fmt.Sprintf("@netrpc-test-%d-wrongfn", os.Getpid()))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [12]byte // an empty request, answered as function 8
		if _, err := readFull(conn, hdr[:]); err != nil {
			return
		}
		binary.LittleEndian.PutUint64(hdr[0:8], 8)
		conn.Write(hdr[:])
	}()
	c, err := DialConfig(ln.Addr().String(), Config{ReadTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, first := c.Call(7, nil)
	if first == nil || !strings.Contains(first.Error(), "function 8") {
		t.Fatalf("wrong echo error = %v, want it to name function 8", first)
	}
	if _, err := c.Call(7, nil); !errors.Is(err, first) {
		t.Fatalf("call after a protocol error = %v, want it wrapped", err)
	}
}

// TestAddrIsLocalSocket pins the transport: an abstract Unix-domain name
// per server, nothing on disk, and nothing left bound after Close.
func TestAddrIsLocalSocket(t *testing.T) {
	ls := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		return names
	}
	before := [2][]string{ls("."), ls(os.TempDir())}
	a, err := NewServer(echo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewServer(echo)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, addr := range []string{a.Addr(), b.Addr()} {
		if !strings.HasPrefix(addr, "@") || strings.ContainsAny(addr, " \t\n") {
			t.Fatalf("address %q is not one abstract-socket token", addr)
		}
	}
	if a.Addr() == b.Addr() {
		t.Fatalf("two servers share the address %q", a.Addr())
	}
	c, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	for _, s := range netrpcSocketNames(before[1], ls(os.TempDir())) {
		t.Errorf("serving created %q in %s", s, os.TempDir())
	}
	for _, s := range netrpcSocketNames(before[0], ls(".")) {
		t.Errorf("serving created %q in the working directory", s)
	}
	a.Close()
	start := time.Now()
	if c, err := Dial(a.Addr()); err == nil {
		c.Close()
		t.Fatal("dial of a closed server's address succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("dial of a closed server took %v to fail", d)
	}
	// The name is free again: a killed worker's successor could rebind it.
	ln, err := net.Listen("unix", a.Addr())
	if err != nil {
		t.Fatalf("closed server's name still bound: %v", err)
	}
	ln.Close()
}

// netrpcSocketNames returns the entries of after that are not in before and
// look like this package's doing.
func netrpcSocketNames(before, after []string) []string {
	old := make(map[string]bool, len(before))
	for _, n := range before {
		old[n] = true
	}
	var created []string
	for _, n := range after {
		if !old[n] && strings.Contains(n, "netrpc") {
			created = append(created, n)
		}
	}
	return created
}

// TestCallAllocs pins the frame path's allocation floor: a warmed call
// allocates its caller-owned response and nothing else, on either side.
func TestCallAllocs(t *testing.T) {
	resp := make([]byte, 65)
	s, err := NewServer(func(fn uint64, p []byte) ([]byte, error) { return resp, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var req [8]byte
	call := func() {
		if got, err := c.Call(2, req[:]); err != nil || len(got) != len(resp) {
			t.Fatalf("call: %d bytes, %v", len(got), err)
		}
	}
	call()
	if avg := testing.AllocsPerRun(2000, call); avg > 1 {
		t.Fatalf("%.2f allocations per call, want <= 1 (the returned slice)", avg)
	}
}

// TestRetainedBufferBounded: a large frame must not stay pinned by every
// connection that once carried one.
func TestRetainedBufferBounded(t *testing.T) {
	s, err := NewServer(func(fn uint64, p []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const conns, big = 16, 1 << 20
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := heap()
	clients := make([]*Client, conns)
	for i := range clients {
		if clients[i], err = Dial(s.Addr()); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		if _, err := clients[i].Call(1, make([]byte, big)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if _, err := clients[i].Call(1, []byte("small")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 2 ends x 16 connections x 64 KiB may stay; 2 x 16 MiB may not.
	if grew := int64(heap()) - int64(base); grew > 4<<20 {
		t.Fatalf("%d idle connections pin %d KiB after one %d KiB frame each", conns, grew>>10, big>>10)
	}
	runtime.KeepAlive(clients)
}

// dialRaw opens a bare connection to s, for tests that speak the wire
// format by hand.
func dialRaw(t testing.TB, s *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("unix", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// readFull is io.ReadFull without importing io into the test twice.
func readFull(conn net.Conn, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := conn.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
