package mapreduce

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/shm"
)

// job is one CXL-MapReduce run: a coordinator client, one client per
// executor, and two queues per executor (work in, results out). The
// coordinator creates and owns every queue, so no endpoint's exit can reclaim
// a queue while the other side still uses it. Only references move.
//
// A job has one stop path: stopWith records the first error of either side
// and raises the stop flag, which every wait loop checks. The normal end (the
// coordinator has gathered every result, so every work queue is empty) and a
// failure on either side end the job the same way.
type job struct {
	coord holder
	execs []*executor
	wg    sync.WaitGroup
	stop  atomic.Bool
	mu    sync.Mutex
	err   error
}

// holder is a client and the roots it keeps until the job ends.
type holder struct {
	c     *shm.Client
	roots []layout.Addr
}

// executor is one map worker and its two queues.
type executor struct {
	holder
	work layout.Addr // coordinator -> executor
	res  layout.Addr // executor -> coordinator
}

// mapper is an executor's map step: it reads one work object in place and
// returns the root and address of the result object it emits.
type mapper func(work layout.Addr) (root, res layout.Addr, err error)

// errStopped ends a wait loop once the job has stopped.
var errStopped = errors.New("mapreduce: job stopped")

const queueCap = 8

// newJob connects the job's coordinator.
func newJob(p *shm.Pool) (*job, error) {
	c, err := p.Connect()
	if err != nil {
		return nil, err
	}
	return &job{coord: holder{c: c}}, nil
}

// start connects n executors and creates their queues, then runs each on a
// goroutine of its own, where setup(e, x) prepares executor e and returns its
// map step.
func (j *job) start(p *shm.Pool, n int, setup func(e int, x *executor) (mapper, error)) error {
	var err error
	for e := 0; e < n && err == nil; e++ {
		x := &executor{}
		if x.c, err = p.Connect(); err != nil {
			err = fmt.Errorf("mapreduce: executor %d: %w", e, err)
			break
		}
		j.execs = append(j.execs, x)
		x.work, err = j.coord.hold(j.coord.c.CreateQueue(x.c.ID(), queueCap))
		if err == nil {
			x.res, err = j.coord.hold(j.coord.c.CreateQueueBetween(x.c.ID(), j.coord.c.ID(), queueCap))
		}
	}
	if err != nil {
		for _, x := range j.execs { // none runs yet
			x.c.Close()
		}
		return err
	}
	for e, x := range j.execs {
		j.wg.Add(1)
		go func() {
			defer j.wg.Done()
			err := j.serve(e, x, setup)
			if err == errStopped {
				err = nil
			}
			if rerr := x.release(); err == nil {
				err = rerr
			}
			if cerr := x.c.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				j.stopWith(fmt.Errorf("mapreduce: executor %d: %w", e, err))
			}
		}()
	}
	return nil
}

// serve is executor e's loop: open both queues, set up, then map each work
// object into a result object until the job stops.
func (j *job) serve(e int, x *executor, setup func(e int, x *executor) (mapper, error)) error {
	c := x.c
	for _, q := range []layout.Addr{x.work, x.res} {
		root, err := c.OpenQueue(q)
		if err != nil {
			return err
		}
		x.roots = append(x.roots, root)
	}
	m, err := setup(e, x)
	if err != nil {
		return err
	}
	for {
		root, work, err := j.receive(c, x.work)
		if err != nil {
			return err
		}
		rroot, res, err := m(work)
		if err == nil {
			err = j.send(c, x.res, rroot, res)
		}
		if _, rerr := c.ReleaseRoot(root); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
	}
}

// send hands block to queue q, retrying while q is full until the job stops,
// then drops the sender's root: the queue slot holds the reference now.
func (j *job) send(c *shm.Client, q, root, block layout.Addr) error {
	err := c.Send(q, block)
	for ; err == shm.ErrQueueFull; err = c.Send(q, block) {
		if j.stop.Load() {
			err = errStopped
			break
		}
		runtime.Gosched()
	}
	if _, rerr := c.ReleaseRoot(root); err == nil {
		err = rerr
	}
	return err
}

// receive takes the next work object from queue q, waiting while q is empty
// until the job stops.
func (j *job) receive(c *shm.Client, q layout.Addr) (root, block layout.Addr, err error) {
	for {
		root, block, err = c.Receive(q)
		if err != shm.ErrQueueEmpty {
			return root, block, err
		}
		if j.stop.Load() {
			return 0, 0, errStopped
		}
		runtime.Gosched()
	}
}

// gather folds n results, read in place, taking each from whichever
// executor has one ready, so the reduce overlaps the map still running.
func (j *job) gather(n int, fold func(res layout.Addr)) error {
	c := j.coord.c
	for got := 0; got < n; {
		ready := false
		for _, x := range j.execs {
			root, res, err := c.Receive(x.res)
			if err == shm.ErrQueueEmpty {
				continue
			}
			if err != nil {
				return err
			}
			fold(res)
			if _, err := c.ReleaseRoot(root); err != nil {
				return err
			}
			got, ready = got+1, true
		}
		if !ready {
			if j.stop.Load() {
				return errStopped
			}
			runtime.Gosched()
		}
	}
	return nil
}

// stopWith records err if it is the job's first error and stops every side.
func (j *job) stopWith(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	j.stop.Store(true)
}

// close ends the job (normally when err is nil), waits for every executor,
// releases the coordinator's roots and closes it. It returns the job's first
// error.
func (j *job) close(err error) error {
	j.stopWith(err)
	j.wg.Wait()
	j.stopWith(j.coord.release())
	j.stopWith(j.coord.c.Close())
	return j.err
}

// hold keeps root until the job ends and passes block and err through; its
// arguments are what Malloc and CreateQueue return.
func (h *holder) hold(root, block layout.Addr, err error) (layout.Addr, error) {
	if err == nil {
		h.roots = append(h.roots, root)
	}
	return block, err
}

// release drops every root h holds and returns the first error.
func (h *holder) release() (err error) {
	for _, r := range h.roots {
		if _, rerr := h.c.ReleaseRoot(r); err == nil {
			err = rerr
		}
	}
	h.roots = nil
	return err
}
