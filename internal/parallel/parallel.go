// Package parallel provides the small bounded worker-pool helpers the
// allocator stack uses to fan independent work out across CPUs while
// keeping results deterministically ordered.
//
// The contract every helper honors: results come back in input order, a
// worker count of 1 degenerates to a plain serial loop (same goroutine,
// ascending index order), and fn is only ever called concurrently for
// *different* indices — so callers may write into per-index slots of a
// shared slice without synchronization.
//
// Failure contract: a panic inside fn never kills a worker goroutine
// silently (which would crash the whole process). Workers recover it,
// stop handing out further indices, and the helper re-panics on the
// *calling* goroutine with a *Panic that preserves the original value
// and the worker's stack — the same observable behavior a serial loop
// would have, so callers can install a single recover at their API
// boundary.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Panic transports a panic recovered in a worker goroutine to the
// calling goroutine. Value is the original panic value; Stack is the
// worker's stack at recovery time.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", p.Value)
}

// Workers normalizes a requested worker count: n <= 0 means "one worker
// per available CPU" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// CtxErr reports whether ctx is done, polling the deadline clock as well
// as the done channel. ctx.Err() alone is not enough on a saturated
// GOMAXPROCS=1 machine: the deadline timer's callback needs the
// scheduler to run it, and a busy compute goroutine can starve it past
// the deadline for several milliseconds (until sysmon preempts). Checking
// the wall clock against ctx.Deadline() needs no timer delivery, so
// deadline checks stay accurate even when the runtime is saturated. For
// contexts with no deadline this is one extra ok-check over ctx.Err().
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) { //lint:ignore detlint deadline polling against the wall clock is the documented cancellation mechanism; it never orders allocation work
		return context.DeadlineExceeded
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// (normalized by Workers) and returns the n results in input order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr runs fn(i) for i in [0, n) on at most workers goroutines and
// returns the results in input order. It stops launching new work as
// soon as any call fails or ctx is done; indices not yet started are
// skipped (calls already in flight run to completion). On failure the
// error for the lowest *attempted* failing index is returned — with one
// worker that is exactly the first failure a serial ascending loop would
// see; with several workers the skipped tail may hide lower-index
// failures that were never attempted. If no call failed but ctx fired,
// ctx.Err() is returned. A nil error means all n indices completed.
func MapErr[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := CtxErr(ctx); err != nil {
				return nil, err
			}
			var err error
			out[i], err = fn(i)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	var stop atomic.Bool
	run(workers, n, &stop, func(i int) {
		if err := CtxErr(ctx); err != nil {
			stop.Store(true)
			return
		}
		out[i], errs[i] = fn(i)
		if errs[i] != nil {
			stop.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (normalized by Workers). With one worker it runs fn serially in
// ascending index order on the calling goroutine; otherwise indices are
// handed out atomically, so the assignment of index to goroutine — but
// never the set of calls made — depends on scheduling. A panic in any
// call stops the fan-out and resurfaces on the calling goroutine.
func ForEach(workers, n int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	run(workers, n, nil, fn)
}

// run is the shared worker loop: hand out ascending indices atomically,
// optionally honoring a caller-owned stop flag, recover worker panics
// and re-panic the first one (lowest index) on the calling goroutine.
func run(workers, n int, stop *atomic.Bool, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Bool
	panics := make([]*Panic, n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() || (stop != nil && stop.Load()) {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = &Panic{Value: r, Stack: debug.Stack()}
							panicked.Store(true)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p) //lint:invariant re-raises a panic transported from a worker goroutine so the API-boundary barrier can classify it
		}
	}
}
