package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Reference kernels. Between slices, alone on the machine, the harness
// times a stdlib-only kernel that no change to this repository can move.
// A slice's timings are then scaled by nominal/reference, so a host-level
// dip that slows the kernel and the workload alike cancels out.
//
// The nominal values are the lower quartile of the reference samples of the
// baseline runs on the 2-vCPU builder machine (see README.md, "Calibration").
// They only fix the unit — calibrated numbers read as quiet-machine
// microseconds — and must never change once numbers are compared across
// commits.
const (
	refNetNominalUS = 11400.0
	refCPUNominalUS = 7700.0
)

const (
	refNetRoundTrips = 900
	refNetMsgBytes   = 16
	refCPUOps        = 600_000
	refCPUTableWords = 1 << 21 // 16 MiB
)

// refKernel is one reference kernel. sample runs it once and returns its
// wall time in microseconds.
type refKernel interface {
	name() string
	nominalUS() float64
	sample() (float64, error)
	close()
}

// refCPU is 600 k xorshift-addressed read-modify-writes over a 16 MiB table,
// one goroutine: the stand-in for the in-memory workloads. The table is
// deliberately larger than the private caches. The host's dips come from
// neighbours contending for the shared cache and memory, and a kernel that
// stays in L2 slows down less than the allocator and recovery code do
// (measured: slope 1.3 against a 1 MiB table, 0.85 against this one), so it
// under-corrects.
type refCPU struct {
	table []uint64
	x     uint64
}

func newRefCPU() *refCPU {
	return &refCPU{table: make([]uint64, refCPUTableWords), x: 0x9e3779b97f4a7c15}
}

func (r *refCPU) name() string       { return "ref.cpu" }
func (r *refCPU) nominalUS() float64 { return refCPUNominalUS }
func (r *refCPU) close()             {}

func (r *refCPU) sample() (float64, error) { return r.run(), nil }

// run is sample without the error the kernel cannot have.
func (r *refCPU) run() float64 {
	x, t := r.x, r.table
	t0 := time.Now()
	for i := 0; i < refCPUOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&(refCPUTableWords-1)] += x
	}
	d := time.Since(t0)
	r.x = x
	return float64(d.Nanoseconds()) / 1e3
}

// refNet is C concurrent 16-byte ping-pongs over raw loopback TCP, 900 round
// trips each: the stand-in for the socket workloads (syscalls, netpoller
// wake-ups and goroutine hand-offs between C closed-loop callers and their
// servers, with none of this repository's code in the path).
type refNet struct {
	ln      net.Listener
	clients []net.Conn
	servers sync.WaitGroup
}

func newRefNet(callers int) (*refNet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ref.net: listen: %w", err)
	}
	r := &refNet{ln: ln}
	for i := 0; i < callers; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("ref.net: dial: %w", err)
		}
		r.clients = append(r.clients, c)
		s, err := ln.Accept()
		if err != nil {
			r.close()
			return nil, fmt.Errorf("ref.net: accept: %w", err)
		}
		r.servers.Add(1)
		go func() {
			defer r.servers.Done()
			defer s.Close()
			var buf [refNetMsgBytes]byte
			for {
				if _, err := io.ReadFull(s, buf[:]); err != nil {
					return // client closed
				}
				if _, err := s.Write(buf[:]); err != nil {
					return
				}
			}
		}()
	}
	return r, nil
}

func (r *refNet) name() string       { return "ref.net" }
func (r *refNet) nominalUS() float64 { return refNetNominalUS }

func (r *refNet) sample() (float64, error) {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			var buf [refNetMsgBytes]byte
			for n := 0; n < refNetRoundTrips; n++ {
				if _, err := c.Write(buf[:]); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, buf[:]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("ref.net: ping-pong: %w", err)
		}
	}
	return float64(d.Nanoseconds()) / 1e3, nil
}

func (r *refNet) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.ln.Close()
	r.servers.Wait()
}
