// Package faultinject is the crash-consistency test harness of the paper's
// §6.2.2 study, kept entirely outside the product: nothing under
// internal/shm imports it. There is one crash model — "the client dies
// before its Nth device write" — delivered by the AccessSweeper, a
// cxl.AccessHook that panics with Crash at an exact store/CAS boundary;
// the harness catches the panic with Run, RAS-fences the client, and leaves
// the pool exactly as the crash found it. The Corruptor (corrupt.go) is the
// second fault family: media faults instead of client deaths.
package faultinject

import "fmt"

// Point labels where an injected crash fired: "sweep/write-N" for the
// access sweeper, "corrupt/stuck-cas-spin" for the corruptor's wedged CAS
// loop.
type Point string

// Crash is the panic payload raised at an injected crash. The client
// harness recovers it and simulates the client's death.
type Crash struct {
	Point Point
}

func (c Crash) Error() string { return fmt.Sprintf("faultinject: injected crash at %s", c.Point) }

// Run executes f, converting an injected Crash panic into a returned *Crash.
// Any other panic propagates. It returns nil if f completes normally.
func Run(f func()) (crashed *Crash) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(Crash); ok {
				crashed = &c
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}
