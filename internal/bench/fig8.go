package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/layout"
	"repro/internal/netrpc"
	"repro/internal/rpc"
	"repro/internal/shm"
)

// Fig8Row is one (system, pairs, payload) point of Figure 8.
type Fig8Row struct {
	System  string // "CXL-RPC", "SPSC", "RDMA*"
	Pairs   int
	Payload int
	KOPS    float64
}

// rpcPool sizes a pool for an RPC experiment.
func rpcPool(pairs int) (*shm.Pool, error) {
	return shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients:   2*pairs + 4,
		NumSegments:  4*pairs + 32,
		SegmentWords: 1 << 15,
		PageWords:    1 << 11,
		MaxQueues:    4*pairs + 8,
	}})
}

// Fig8Pairs sweeps client/server pair counts at a fixed 64-byte payload
// for CXL-RPC, the pure-SPSC upper bound, and the pass-by-value network
// baseline (paper Figure 8, left).
func Fig8Pairs(scale Scale, pairCounts []int) ([]Fig8Row, error) {
	const payload = 64
	var rows []Fig8Row
	for _, pairs := range pairCounts {
		calls := scale.N(2000)
		k, err := cxlRPCPairs(pairs, calls, payload)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{"CXL-RPC", pairs, payload, k})
		k, err = spscPairs(pairs, calls, payload)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{"SPSC", pairs, payload, k})
		k, err = netRPCPairs(pairs, calls, payload)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{"RDMA*", pairs, payload, k})
	}
	return rows, nil
}

// Fig8Payload sweeps payload sizes with a single pair (paper Figure 8,
// right): CXL-RPC moves only references, so it should be size-insensitive;
// the pass-by-value baseline copies the payload end to end.
func Fig8Payload(scale Scale, payloads []int) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, payload := range payloads {
		calls := scale.N(1000)
		k, err := cxlRPCPairs(1, calls, payload)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{"CXL-RPC", 1, payload, k})
		k, err = netRPCPairs(1, calls, payload)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{"RDMA*", 1, payload, k})
	}
	return rows, nil
}

// cxlRPCPairs runs `pairs` caller/server pairs, each issuing `calls` calls
// whose single argument has `payload` bytes; the handler touches only the
// head of the argument (references are what moves — §6.3.1).
func cxlRPCPairs(pairs, calls, payload int) (kops float64, err error) {
	pool, err := rpcPool(pairs)
	if err != nil {
		return 0, err
	}
	type pair struct {
		caller  *rpc.Caller
		server  *rpc.Server
		cc      *shm.Client
		argRoot layout.Addr
		arg     layout.Addr
	}
	ps := make([]*pair, pairs)
	for i := range ps {
		cc, err := pool.Connect()
		if err != nil {
			return 0, err
		}
		sc, err := pool.Connect()
		if err != nil {
			return 0, err
		}
		caller, err := rpc.NewCaller(cc, sc.ID(), 8)
		if err != nil {
			return 0, err
		}
		server, err := rpc.NewServer(sc, cc.ID())
		if err != nil {
			return 0, err
		}
		server.Register(1, func(c *shm.Client, args []layout.Addr, out layout.Addr) error {
			// Zero-copy: touch only the head of the argument.
			v := c.LoadWord(args[0], 0)
			c.StoreWord(out, 0, v+1)
			return nil
		})
		// The argument object is written into shared memory once, outside
		// the timed window — that is the pass-by-reference story: the data
		// is produced in place; calls move only references.
		argRoot, arg, err := caller.Arg(make([]byte, payload))
		if err != nil {
			return 0, err
		}
		ps[i] = &pair{caller: caller, server: server, cc: cc, argRoot: argRoot, arg: arg}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	stopFlags := make([]chan struct{}, pairs)
	start := time.Now()
	for i, p := range ps {
		stop := make(chan struct{})
		stopFlags[i] = stop
		wg.Add(2)
		go func(p *pair) {
			defer wg.Done()
			errs <- p.server.Serve(func() bool {
				select {
				case <-stop:
					return true
				default:
					return false
				}
			})
		}(p)
		go func(p *pair, stop chan struct{}) {
			defer wg.Done()
			defer close(stop)
			// Pipeline calls (depth 4): throughput RPC keeps several
			// requests in flight, as any real RPC benchmark does.
			const depth = 4
			var window []*rpc.Pending
			drain := func(until int) error {
				for len(window) > until {
					outRoot, _, err := window[0].Wait()
					if err != nil {
						return err
					}
					if _, err := p.cc.ReleaseRoot(outRoot); err != nil {
						return err
					}
					window = window[1:]
				}
				return nil
			}
			for c := 0; c < calls; c++ {
				pd, err := p.caller.CallStart(1, []layout.Addr{p.arg}, 64)
				if err != nil {
					errs <- err
					return
				}
				window = append(window, pd)
				if err := drain(depth - 1); err != nil {
					errs <- err
					return
				}
			}
			if err := drain(0); err != nil {
				errs <- err
				return
			}
			if _, err := p.cc.ReleaseRoot(p.argRoot); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}(p, stop)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return kcalls(pairs*calls, time.Since(start)), nil
}

// spscPairs is the Figure 8 upper bound: object allocation plus a raw SPSC
// token exchange, with none of the reference-count transfer machinery.
func spscPairs(pairs, msgs, payload int) (kops float64, err error) {
	pool, err := rpcPool(pairs)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	start := time.Now()
	for i := 0; i < pairs; i++ {
		fwd := rpc.NewSPSCRing(64)
		back := rpc.NewSPSCRing(64)
		prod, err := pool.Connect()
		if err != nil {
			return 0, err
		}
		cons, err := pool.Connect()
		if err != nil {
			return 0, err
		}
		wg.Add(2)
		go func(c *shm.Client) { // producer: allocs and frees; ownership by convention
			defer wg.Done()
			for m := 0; m < msgs; m++ {
				root, block, err := c.Malloc(payload, 0)
				if err != nil {
					errs <- err
					return
				}
				c.StoreWord(block, 0, uint64(m))
				fwd.PushWait(block)
				back.PopWait() // token returned: consumer is done with it
				if _, err := c.ReleaseRoot(root); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(prod)
		go func(c *shm.Client) { // consumer: "executes the function"
			defer wg.Done()
			for m := 0; m < msgs; m++ {
				block := fwd.PopWait()
				_ = c.LoadWord(block, 0)
				back.PushWait(block)
			}
			errs <- nil
		}(cons)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return kcalls(pairs*msgs, time.Since(start)), nil
}

// netRPCPairs runs the pass-by-value baseline over netrpc's Unix socket.
func netRPCPairs(pairs, calls, payload int) (kops float64, err error) {
	srv, err := netrpc.NewServer(func(fn uint64, p []byte) ([]byte, error) {
		out := make([]byte, 64)
		if len(p) > 0 {
			out[0] = p[0] + 1
		}
		return out, nil
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, pairs)
	start := time.Now()
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := netrpc.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			buf := make([]byte, payload)
			for c := 0; c < calls; c++ {
				if _, err := cl.Call(1, buf); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return kcalls(pairs*calls, time.Since(start)), nil
}

// PrintFig8 renders Figure 8 rows.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.System, fmt.Sprint(r.Pairs), fmt.Sprint(r.Payload), f1(r.KOPS)}
	}
	PrintTable(w, []string{"System", "Pairs", "PayloadB", "KOPS"}, out)
}

func kcalls(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / 1e3
}
