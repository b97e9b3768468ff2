package netrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
)

// countingConn counts the Read and Write calls that reach a Unix-domain
// connection. A vectored write (net.Buffers) reaches the socket past Write,
// as one writev.
type countingConn struct {
	*net.UnixConn
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.UnixConn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.UnixConn.Write(p)
}

// socketPair returns the two ends of a connected Unix-domain socket pair of
// type typ (syscall.SOCK_STREAM or syscall.SOCK_SEQPACKET), closed when the
// test ends.
func socketPair(t *testing.T, typ int) (*net.UnixConn, *net.UnixConn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, typ|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ends [2]*net.UnixConn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		c, err := net.FileConn(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		ends[i] = c.(*net.UnixConn)
	}
	return ends[0], ends[1]
}

// frameBytes is the wire image of one frame.
func frameBytes(fn uint64, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, fn)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// TestFrameIsOneWrite pins that a frame of any size reaches the connection
// in one call: one Write when it fits the writer's free space, otherwise one
// vectored write and no Write, so it is never split into a header push and
// a payload push. Up to 64 KiB the frame goes over a SOCK_SEQPACKET pair,
// where every write syscall is one record: the peer's first read returning
// the whole frame proves it went through the kernel in one write. 1 MiB is
// more than a socket buffer holds in one record and goes over a stream.
func TestFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 65, 4084, 4624, 64 << 10, 1 << 20} {
		payload := bytes.Repeat([]byte{0xC5}, n)
		for i := range payload {
			payload[i] ^= byte(i / 251)
		}
		want := frameBytes(7, payload)
		typ := syscall.SOCK_SEQPACKET
		if n > 64<<10 {
			typ = syscall.SOCK_STREAM
		}
		a, b := socketPair(t, typ)
		cc := &countingConn{UnixConn: a}
		e := &end{conn: cc, w: bufio.NewWriter(cc)}
		got := make(chan []byte, 1)
		go func() {
			rec := make([]byte, len(want)+1)
			var m int
			if typ == syscall.SOCK_SEQPACKET {
				m, _ = b.Read(rec) // one record: one write syscall
			} else {
				m, _ = io.ReadFull(b, rec[:len(want)])
			}
			got <- rec[:m]
		}()
		if err := e.writeFrame(7, uint32(n), payload); err != nil {
			t.Fatalf("%d B: %v", n, err)
		}
		if rec := <-got; !bytes.Equal(rec, want) {
			t.Fatalf("%d B: the peer's first read got %d of the frame's %d bytes", n, len(rec), len(want))
		}
		wantWrites := 0 // a vectored write
		if len(want) <= e.w.Size() {
			wantWrites = 1 // the writer's flush
		}
		if cc.writes != wantWrites {
			t.Fatalf("%d B: %d Write calls, want %d", n, cc.writes, wantWrites)
		}
	}
}

// TestClientReadsScanResponseOnce pins the client's receive side: a 64-record
// SCAN response (4 624 B of payload, 4 636 B on the wire) that is already in
// the socket is taken with one Read, header and payload together.
func TestClientReadsScanResponseOnce(t *testing.T) {
	a, b := socketPair(t, syscall.SOCK_STREAM)
	cc := &countingConn{UnixConn: a}
	c := newClient(cc, Config{})
	payload := bytes.Repeat([]byte{0x3C}, 4624)
	if _, err := b.Write(frameBytes(4, payload)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(4, make([]byte, 16))
	if err != nil || !bytes.Equal(resp, payload) {
		t.Fatalf("call: %d bytes, %v", len(resp), err)
	}
	if cc.reads != 1 {
		t.Fatalf("%d Reads for a %d B response, want 1", cc.reads, len(payload)+frameHeader)
	}
}

// TestScanCallAllocs extends TestCallAllocs to a response that does not fit
// the server's writer: the vectored write allocates nothing either.
func TestScanCallAllocs(t *testing.T) {
	resp := make([]byte, 4624)
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
	var req [16]byte
	call := func() {
		if got, err := c.Call(4, req[:]); err != nil || len(got) != len(resp) {
			t.Fatalf("call: %d bytes, %v", len(got), err)
		}
	}
	call()
	if avg := testing.AllocsPerRun(2000, call); avg > 1 {
		t.Fatalf("%.2f allocations per call, want <= 1 (the returned slice)", avg)
	}
}
