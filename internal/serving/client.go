package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/netrpc"
)

// Conn is a typed client for one worker's RPC endpoint. Like the
// netrpc.Client under it, it may be shared across goroutines and carries
// one call at a time.
type Conn struct {
	c *netrpc.Client

	mu  sync.Mutex
	req [16]byte // fixed-size request scratch: a local one escapes per call
}

// callFixed sends a request of one or two words from the scratch.
func (c *Conn) callFixed(fn uint64, words ...uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range words {
		putU64(c.req[8*i:], w)
	}
	return c.c.Call(fn, c.req[:8*len(words)])
}

// DialWorker connects to a worker.
func DialWorker(addr string, cfg netrpc.Config) (*Conn, error) {
	c, err := netrpc.DialConfig(addr, cfg)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// Ping returns the worker's client slot ID.
func (c *Conn) Ping() (int, error) {
	resp, err := c.c.Call(FnPing, nil)
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, fmt.Errorf("serving: ping response %d bytes", len(resp))
	}
	return int(u64(resp)), nil
}

// Get fetches key's value. found is false when the key does not exist.
func (c *Conn) Get(key uint64) (val []byte, found bool, err error) {
	resp, err := c.callFixed(FnGet, key)
	if err != nil {
		return nil, false, err
	}
	if len(resp) < 1 {
		return nil, false, fmt.Errorf("serving: empty get response")
	}
	if resp[0] == 0 {
		return nil, false, nil
	}
	return resp[1:], true, nil
}

// Put writes key's value.
func (c *Conn) Put(key uint64, val []byte) error {
	req := make([]byte, 8+len(val))
	putU64(req, key)
	copy(req[8:], val)
	_, err := c.c.Call(FnPut, req)
	return err
}

// Scan fetches up to maxRecords records starting at startBucket and
// returns how many arrived (the records themselves are decoded only to be
// validated — the serving driver measures batch-read cost, not content).
func (c *Conn) Scan(startBucket, maxRecords uint64) (int, error) {
	resp, err := c.callFixed(FnScan, startBucket, maxRecords)
	if err != nil {
		return 0, err
	}
	if len(resp) < 16 {
		return 0, fmt.Errorf("serving: short scan response (%d bytes)", len(resp))
	}
	count := int(u64(resp))
	valSize := int(u64(resp[8:]))
	if want := 16 + count*(8+valSize); len(resp) != want {
		return 0, fmt.Errorf("serving: scan response %d bytes, header promises %d", len(resp), want)
	}
	return count, nil
}

// Takeover asks the worker to steal write ownership of partition p — the
// §6.4 metadata-only failover: no data moves, one lease word changes. It
// returns ErrTakeoverPending while the partition's writer may still write;
// the caller retries.
func (c *Conn) Takeover(p int) error {
	_, err := c.callFixed(FnTakeover, uint64(p))
	var se *netrpc.ServerError
	if errors.As(err, &se) && se.Msg == ErrTakeoverPending.Error() {
		return ErrTakeoverPending
	}
	return err
}

// Stats fetches the worker's counters and store shape.
func (c *Conn) Stats() (WorkerStats, error) {
	var st WorkerStats
	resp, err := c.c.Call(FnStats, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(resp, &st)
}

// Quit asks the worker to shut down cleanly after responding.
func (c *Conn) Quit() error {
	_, err := c.c.Call(FnQuit, nil)
	return err
}
