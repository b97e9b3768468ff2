package netrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// FuzzServeFrame writes arbitrary bytes down a connection to a server with
// a 4 KiB MaxPayload and checks what comes back against a model of the
// wire format: every complete well-formed request is answered in order by
// a well-formed frame echoing its function id, a hostile length is answered
// by one error frame, and after it, a truncated frame or the end of the
// input the server closes. The server must not panic, hang, or size a
// buffer from a length it should have refused.
func FuzzServeFrame(f *testing.F) {
	const maxPayload = 4 << 10
	frame := func(fn uint64, n uint32, payload []byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, fn)
		b = binary.LittleEndian.AppendUint32(b, n)
		return append(b, payload...)
	}
	get := frame(2, 8, make([]byte, 8))
	put := frame(3, 56, bytes.Repeat([]byte{0xAB}, 56))
	scan := frame(4, 16, make([]byte, 16))
	f.Add(get)
	f.Add(put)
	f.Add(append(append(append([]byte{}, get...), put...), scan...))
	f.Add(frame(2, 1<<30, []byte("lying length")))
	f.Add(frame(2, errFlag|8, make([]byte, 8)))
	f.Add(frame(13, 4, []byte("oops")))
	f.Add(frame(4, maxPayload, bytes.Repeat([]byte{0x5C}, maxPayload))) // longer than 4 KiB
	f.Add(get[:7])
	f.Add(put[:30])

	overrun := make(chan int, 1)
	s, err := NewServerConfig(func(fn uint64, p []byte) ([]byte, error) {
		if cap(p) > maxPayload {
			select {
			case overrun <- cap(p):
			default:
			}
		}
		if fn == 13 {
			return nil, errors.New("unlucky")
		}
		return echo(fn, p)
	}, Config{MaxPayload: maxPayload, ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := dialRaw(t, s).(*net.UnixConn)
		defer conn.Close()
		go func() {
			conn.Write(data) // fails once the server hangs up: expected
			conn.CloseWrite()
		}()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		var got bytes.Buffer
		if _, err := got.ReadFrom(conn); err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Fatalf("server neither answered nor closed (%d bytes so far)", got.Len())
			}
			// A reset: the server hung up with input unread. A close.
		}
		select {
		case n := <-overrun:
			t.Fatalf("request buffer of %d bytes under MaxPayload %d", n, maxPayload)
		default:
		}

		resp := got.Bytes()
		next := func(fn uint64) (payload []byte, isErr bool) {
			t.Helper()
			if len(resp) < 12 {
				t.Fatalf("fn %d: %d response bytes, want a frame", fn, len(resp))
			}
			n := binary.LittleEndian.Uint32(resp[8:12])
			isErr, n = n&errFlag != 0, n&^uint32(errFlag)
			if echoed := binary.LittleEndian.Uint64(resp[0:8]); echoed != fn || uint32(len(resp)-12) < n {
				t.Fatalf("fn %d: malformed response (fn %d, length %d, %d bytes left)", fn, echoed, n, len(resp)-12)
			}
			payload, resp = resp[12:12+n], resp[12+n:]
			return payload, isErr
		}
		for len(data) >= 12 {
			fn := binary.LittleEndian.Uint64(data[0:8])
			n := binary.LittleEndian.Uint32(data[8:12])
			if n&errFlag != 0 || n > maxPayload {
				if msg, isErr := next(fn); !isErr || !bytes.Contains(msg, []byte("MaxPayload")) {
					t.Fatalf("hostile length %#x answered by %q (error flag %v)", n, msg, isErr)
				}
				break
			}
			if uint32(len(data)-12) < n {
				break // truncated: dropped unanswered
			}
			payload, isErr := next(fn)
			if isErr != (fn == 13) || !isErr && !bytes.Equal(payload, data[12:12+n]) {
				t.Fatalf("fn %d: response %q (error flag %v) to request %q", fn, payload, isErr, data[12:12+n])
			}
			data = data[12+n:]
		}
		if len(resp) != 0 {
			t.Fatalf("%d bytes after the last expected frame", len(resp))
		}
	})
}
