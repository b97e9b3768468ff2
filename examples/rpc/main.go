// RPC: the pass-by-reference RPC framework of §6.3 in action. A caller
// builds its arguments directly in shared memory, the server works on them
// in place, and only references ever cross the client/server boundary —
// no serialization, no copies, no network stack.
package main

import (
	"fmt"
	"log"
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/rpc"
	"repro/internal/shm"
)

// Function IDs for our tiny service.
const (
	fnWordCount = 1
	fnReverse   = 2
)

func main() {
	pool, err := shm.NewPool(shm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	callerClient, err := pool.Connect()
	if err != nil {
		log.Fatal(err)
	}
	serverClient, err := pool.Connect()
	if err != nil {
		log.Fatal(err)
	}

	caller, err := rpc.NewCaller(callerClient, serverClient.ID(), 8)
	if err != nil {
		log.Fatal(err)
	}
	server, err := rpc.NewServer(serverClient, callerClient.ID())
	if err != nil {
		log.Fatal(err)
	}

	// Handlers read arguments and write results in place.
	server.Register(fnWordCount, func(c *shm.Client, args []layout.Addr, out layout.Addr) error {
		words, inWord := uint64(0), false
		for _, b := range readText(c, args[0]) {
			sp := b == ' ' || b == '\n'
			if !sp && !inWord {
				words++
			}
			inWord = !sp
		}
		c.StoreWord(out, 0, words)
		return nil
	})
	server.Register(fnReverse, func(c *shm.Client, args []layout.Addr, out layout.Addr) error {
		buf := readText(c, args[0])
		for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
			buf[i], buf[j] = buf[j], buf[i]
		}
		c.WriteData(out, 0, buf)
		return nil
	})

	var stop atomic.Bool
	done := make(chan error, 1)
	go func() { done <- server.Serve(stop.Load) }()

	// Call 1: word count. The argument is written once into shared memory;
	// the server reads it in place.
	text := "references move data stays put"
	argRoot, arg, err := textArg(callerClient, text)
	if err != nil {
		log.Fatal(err)
	}
	outRoot, out, err := caller.Call(fnWordCount, []layout.Addr{arg}, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wordcount(%q) = %d\n", text, callerClient.LoadWord(out, 0))
	callerClient.ReleaseRoot(outRoot)

	// Call 2: reuse the same argument object — zero-copy across calls too.
	outRoot, out, err = caller.Call(fnReverse, []layout.Addr{arg}, len(text))
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, len(text))
	callerClient.ReadData(out, 0, buf)
	fmt.Printf("reverse(...) = %q\n", buf)
	callerClient.ReleaseRoot(outRoot)
	callerClient.ReleaseRoot(argRoot)

	stop.Store(true)
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	if err := caller.Close(); err != nil {
		log.Fatal(err)
	}
	if err := server.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("done — two RPCs, zero serialization")
}

// textArg stores s as an argument object: word 0 holds the byte count, then
// the bytes. The count travels with the data because a block's capacity
// (DataBytesOf) is rounded up to whole words, so it overstates the length of
// any text that is not a multiple of 8 bytes long.
func textArg(c *shm.Client, s string) (root, block layout.Addr, err error) {
	root, block, err = c.Malloc(layout.WordBytes+len(s), 0)
	if err != nil {
		return 0, 0, err
	}
	c.StoreWord(block, 0, uint64(len(s)))
	c.WriteData(block, layout.WordBytes, []byte(s))
	return root, block, nil
}

// readText reads a textArg object in place.
func readText(c *shm.Client, block layout.Addr) []byte {
	buf := make([]byte, c.LoadWord(block, 0))
	c.ReadData(block, layout.WordBytes, buf)
	return buf
}
