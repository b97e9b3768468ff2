// Package rpc implements CXL-RPC, the paper's pass-by-reference RPC
// framework (§6.3): arguments and results live in the shared pool and only
// references move, through CXL-SHM transfer queues, eliminating
// serialization, copies, and the network stack.
//
// Protocol (§6.3.1): a call allocates an rpc_msg object with I+1 embedded
// references — the first I link the input arguments, the last links the
// output object — plus a function ID and a status word. The message
// reference is sent to the server, which accesses the arguments directly
// through the embedded references, writes the output in place, and flips
// the status word; the caller polls the status word (a remote memory load,
// the natural CXL completion mechanism).
package rpc

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/layout"
	"repro/internal/shm"
)

// Errors.
var (
	ErrNoHandler = errors.New("rpc: no handler registered for function")
	ErrClosed    = errors.New("rpc: endpoint closed")
	// ErrRemote reports that the handler (or dispatch) failed on the server;
	// the output object's contents are undefined.
	ErrRemote = errors.New("rpc: remote handler failed")
)

// Message data layout: words [0, argc] are the embedded references (argc
// args + 1 output), then function ID and status.
const (
	msgStatusPending = 0
	msgStatusDone    = 1
	msgStatusFailed  = 2 // handler error or unknown function
)

// Handler executes one function: args are the argument object addresses,
// out the output object address. It runs on the server's client, which it
// may use for direct data access.
type Handler func(c *shm.Client, args []layout.Addr, out layout.Addr) error

// Server serves calls from one peer over one queue (SPSC; use one Server
// per caller, as the paper's evaluation scales server/client pairs).
type Server struct {
	c        *shm.Client
	q        layout.Addr
	qRoot    layout.Addr
	handlers map[uint64]Handler
	closed   bool
}

// NewServer opens the queue from peer callerCID (which must have created it
// with NewCaller first).
func NewServer(c *shm.Client, callerCID int) (*Server, error) {
	block := c.FindQueueFrom(callerCID)
	if block == 0 {
		return nil, fmt.Errorf("rpc: no queue from caller %d", callerCID)
	}
	root, err := c.OpenQueue(block)
	if err != nil {
		return nil, err
	}
	return &Server{c: c, q: block, qRoot: root, handlers: map[uint64]Handler{}}, nil
}

// Register installs a handler for function id.
func (s *Server) Register(id uint64, h Handler) { s.handlers[id] = h }

// Poll processes at most one pending call; reports whether one was served.
func (s *Server) Poll() (bool, error) {
	if s.closed {
		return false, ErrClosed
	}
	msgRoot, msg, err := s.c.Receive(s.q)
	if err == shm.ErrQueueEmpty {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	m := s.c.MetaOf(msg)
	embeds := int(m.EmbedCnt) // argc + 1
	args := make([]layout.Addr, embeds-1)
	for i := range args {
		args[i], _ = s.c.LoadEmbed(msg, i)
	}
	out, _ := s.c.LoadEmbed(msg, embeds-1)
	fn := s.c.LoadWord(msg, embeds)

	h, ok := s.handlers[fn]
	if !ok {
		s.c.StoreWord(msg, embeds+1, msgStatusFailed) // unblock with an error
		if _, rerr := s.c.ReleaseRoot(msgRoot); rerr != nil {
			return true, rerr
		}
		return true, ErrNoHandler
	}
	herr := h(s.c, args, out)
	if herr != nil {
		s.c.StoreWord(msg, embeds+1, msgStatusFailed)
	} else {
		s.c.StoreWord(msg, embeds+1, msgStatusDone)
	}
	if _, err := s.c.ReleaseRoot(msgRoot); err != nil {
		return true, err
	}
	return true, herr
}

// Serve polls until stop returns true (busy polling, like the paper's
// server).
func (s *Server) Serve(stop func() bool) error {
	for !stop() {
		served, err := s.Poll()
		if err != nil {
			return err
		}
		if !served {
			runtime.Gosched()
		}
	}
	return nil
}

// Close releases the server's queue endpoint.
func (s *Server) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	_, err := s.c.ReleaseRoot(s.qRoot)
	return err
}

// Caller issues calls to one server.
type Caller struct {
	c      *shm.Client
	q      layout.Addr
	qRoot  layout.Addr
	closed bool
}

// NewCaller creates the call queue toward serverCID.
func NewCaller(c *shm.Client, serverCID, queueCap int) (*Caller, error) {
	root, block, err := c.CreateQueue(serverCID, queueCap)
	if err != nil {
		return nil, err
	}
	return &Caller{c: c, q: block, qRoot: root}, nil
}

// Arg allocates an argument object and fills it with data (zero-copy from
// the callee's perspective; the caller may also build arguments in place
// via the returned address and the client's data accessors).
func (cl *Caller) Arg(data []byte) (root, block layout.Addr, err error) {
	root, block, err = cl.c.Malloc(len(data), 0)
	if err != nil {
		return 0, 0, err
	}
	cl.c.WriteData(block, 0, data)
	return root, block, nil
}

// Call invokes function fn with the given argument objects, allocating an
// output object of outBytes. It blocks (polling) until the server completes
// and returns the output object's address along with the caller's counted
// reference to it; release the returned root when done with the output.
func (cl *Caller) Call(fn uint64, args []layout.Addr, outBytes int) (outRoot, out layout.Addr, err error) {
	p, err := cl.start(fn, args, outBytes)
	if err != nil {
		return 0, 0, err
	}
	return p.Wait()
}

// Pending is an in-flight asynchronous call (see CallStart).
type Pending struct {
	cl      *Caller
	msgRoot layout.Addr
	msg     layout.Addr
	outRoot layout.Addr
	out     layout.Addr
	argc    int
}

// CallStart issues a call without waiting for completion, enabling
// pipelining: several calls can be in flight up to the queue capacity.
// Complete each with Pending.Wait (in any order).
func (cl *Caller) CallStart(fn uint64, args []layout.Addr, outBytes int) (*Pending, error) {
	p, err := cl.start(fn, args, outBytes)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// start builds the message — argc+1 embedded references (the inputs, then a
// fresh output object of outBytes), the function ID and the status word —
// and sends its reference. On any error it releases what it allocated.
func (cl *Caller) start(fn uint64, args []layout.Addr, outBytes int) (p Pending, err error) {
	if cl.closed {
		return p, ErrClosed
	}
	argc := len(args)
	p = Pending{cl: cl, argc: argc}
	if p.msgRoot, p.msg, err = cl.c.Malloc((argc+3)*layout.WordBytes, argc+1); err != nil {
		return p, err
	}
	for i := 0; i < argc && err == nil; i++ {
		err = cl.c.SetEmbed(p.msg, i, args[i])
	}
	if err == nil {
		p.outRoot, p.out, err = cl.c.Malloc(outBytes, 0)
	}
	if err == nil {
		err = cl.c.SetEmbed(p.msg, argc, p.out)
	}
	if err == nil {
		cl.c.StoreWord(p.msg, argc+1, fn)
		cl.c.StoreWord(p.msg, argc+2, msgStatusPending)
		for err = cl.c.Send(cl.q, p.msg); err == shm.ErrQueueFull; err = cl.c.Send(cl.q, p.msg) {
			runtime.Gosched()
		}
	}
	if err != nil {
		for _, r := range []layout.Addr{p.outRoot, p.msgRoot} {
			if r != 0 {
				cl.c.ReleaseRoot(r)
			}
		}
	}
	return p, err
}

// Done reports (without blocking) whether the call has completed.
func (p *Pending) Done() bool {
	return p.cl.c.LoadWord(p.msg, p.argc+2) != msgStatusPending
}

// Wait blocks (polling) until the server completes, then returns the output
// object and the caller's counted reference to it. A handler failure
// surfaces as ErrRemote (the output is released).
func (p *Pending) Wait() (outRoot, out layout.Addr, err error) {
	for !p.Done() {
		runtime.Gosched()
	}
	status := p.cl.c.LoadWord(p.msg, p.argc+2)
	if _, err := p.cl.c.ReleaseRoot(p.msgRoot); err != nil {
		return 0, 0, err
	}
	if status == msgStatusFailed {
		if _, err := p.cl.c.ReleaseRoot(p.outRoot); err != nil {
			return 0, 0, err
		}
		return 0, 0, ErrRemote
	}
	return p.outRoot, p.out, nil
}

// Close releases the caller's queue endpoint.
func (cl *Caller) Close() error {
	if cl.closed {
		return nil
	}
	cl.closed = true
	_, err := cl.c.ReleaseRoot(cl.qRoot)
	return err
}
