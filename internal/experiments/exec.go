package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"impress/internal/errs"
	"impress/internal/resultstore"
	"impress/internal/sim"
)

// The execution seam: one singleflight memo, one bounded worker pool and
// one store-backed simulation path, shared by every run the package
// performs. Failures and cancellation travel as returned errors; the
// only recovered panics are internal invariant violations (lockstep
// divergence, replay exhaustion), carried unchanged from a pool worker
// or a singleflight owner to the goroutine that asked.

// memo is a singleflight result cache: concurrent calls for one key
// share a single execution, completed values are kept for the memo's
// lifetime, and a failed execution is forgotten so a later call
// retries it. The zero value is ready to use.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*flight[V]
}

// flight is one memoized, possibly in-flight execution; done closes
// once val, err or panicked is final.
type flight[V any] struct {
	done     chan struct{}
	val      V
	err      error
	panicked any
}

// do returns key's memoized value, running exec on a miss. A caller
// finding the key in flight waits under its own ctx; when the owner was
// cancelled — its context, not this caller's — the waiter retries under
// its own context instead of inheriting the cancellation. Any other
// owner error is shared. A dead ctx fails before the memo is consulted,
// so cancellation never depends on cache warmth.
func (m *memo[V]) do(ctx context.Context, key string, exec func() (V, error)) (V, error) {
	for {
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, stopped(err)
		}
		m.mu.Lock()
		f, ok := m.m[key]
		if !ok {
			if m.m == nil {
				m.m = make(map[string]*flight[V])
			}
			f = &flight[V]{done: make(chan struct{})}
			m.m[key] = f
			m.mu.Unlock()
			return m.own(key, f, exec)
		}
		m.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			continue // reported at the top of the loop
		}
		if f.panicked != nil {
			panic(f.panicked)
		}
		if f.err == nil || !errors.Is(f.err, errs.ErrCancelled) {
			return f.val, f.err
		}
	}
}

// own runs exec for a flight this caller claimed. An error forgets the
// key; a panic poisons it — waiters and later callers re-panic with the
// same value, since an invariant violation will not heal on retry.
func (m *memo[V]) own(key string, f *flight[V], exec func() (V, error)) (V, error) {
	defer func() {
		if p := recover(); p != nil {
			f.panicked = p
			close(f.done)
			panic(p)
		}
	}()
	f.val, f.err = exec()
	if f.err != nil {
		m.mu.Lock()
		delete(m.m, key)
		m.mu.Unlock()
	}
	close(f.done)
	return f.val, f.err
}

// get returns key's completed value. Table assembly reads results this
// way after executing its declared specs, so the read cannot fail; a
// key that never completed means a builder read a spec it did not
// declare, which is a bug.
func (m *memo[V]) get(key string) V {
	m.mu.Lock()
	f := m.m[key]
	m.mu.Unlock()
	if f == nil {
		panic(fmt.Sprintf("experiments: result %.12s read before it was executed (undeclared spec)", key))
	}
	<-f.done
	return f.val
}

// forEach calls fn on every item over at most workers goroutines (on the
// calling goroutine alone when workers <= 1). It stops handing out items
// once ctx ends or an item fails, lets in-flight items finish, and
// returns the first failure, where an item's own error displaces a mere
// cancellation. A worker's panic resurfaces on the caller once the pool
// has drained.
func forEach[T any](ctx context.Context, workers int, items []T, fn func(T) error) error {
	var (
		mu       sync.Mutex
		next     int
		err      error
		panicked any
	)
	fail := func(e error) {
		if err == nil || errors.Is(err, errs.ErrCancelled) && !errors.Is(e, errs.ErrCancelled) {
			err = e
		}
	}
	take := func() (int, bool) {
		cerr := ctx.Err()
		mu.Lock()
		defer mu.Unlock()
		if err != nil || panicked != nil || next == len(items) {
			return 0, false
		}
		if cerr != nil {
			fail(stopped(cerr))
			return 0, false
		}
		next++
		return next - 1, true
	}
	work := func() {
		for i, ok := take(); ok; i, ok = take() {
			if e := fn(items[i]); e != nil {
				mu.Lock()
				fail(e)
				mu.Unlock()
			}
		}
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		work()
		return err
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
				}
			}()
			work()
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return err
}

// unique drops items whose key repeats an earlier item's, keeping
// first-seen order.
func unique[T any](items []T, key func(T) string) []T {
	seen := make(map[string]bool, len(items))
	var out []T
	for _, it := range items {
		if k := key(it); !seen[k] {
			seen[k] = true
			out = append(out, it)
		}
	}
	return out
}

// stopped wraps a context's error as the sweep's typed cancellation,
// matching both errs.ErrCancelled and the context's own error.
func stopped(ctxErr error) error {
	return fmt.Errorf("experiments: sweep stopped: %w", errs.Cancelled(ctxErr))
}

// Simulate runs cfg through the store-backed execution path shared by
// Runner.Run and impress.Lab.Run. With a store, sp must be
// resultstore.SpecFor(cfg) and key its Key: a stored result is served
// without simulating; otherwise the run restores a compatible warmup
// checkpoint when one is cached, simulates, and writes the result back.
// A failed write loses persistence, not the run; it is counted in the
// store's Counters. Without a store, key is empty and sp unused.
//
// Each call emits ProgressSpecStarted followed by ProgressSpecCacheHit
// or, once simulated, ProgressSpecFinished. A dead ctx fails before the
// store is consulted; cancellation mid-run stops the simulator within
// one macro cycle.
func Simulate(ctx context.Context, st *resultstore.Store, emit func(Progress), cfg sim.Config, sp resultstore.Spec, key string) (sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return sim.Result{}, fmt.Errorf("experiments: run not started: %w", errs.Cancelled(err))
	}
	label := runLabel(cfg, sp, key)
	emit(Progress{Kind: ProgressSpecStarted, Spec: label, Key: key})
	var restored bool
	if st != nil {
		if res, ok := st.Get(sp); ok {
			emit(Progress{Kind: ProgressSpecCacheHit, Spec: label, Key: key})
			return res, nil
		}
		restored = st.AttachCheckpoints(&cfg)
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	emit(Progress{Kind: ProgressSpecFinished, Spec: label, Key: key, Cycles: res.Cycles, WarmupRestored: restored})
	if st != nil {
		_ = st.Put(sp, res)
	}
	return res, nil
}

// runLabel renders a run's progress label, "workload/design/tracker".
// The workload comes from the store spec when one was derived (a trace
// replay shows its content hash) and from cfg otherwise (a trace replay
// shows its path).
func runLabel(cfg sim.Config, sp resultstore.Spec, key string) string {
	name := sp.Workload
	switch {
	case key == "" && cfg.TraceFile != "":
		name = "trace:" + cfg.TraceFile
	case key == "":
		name = cfg.Workload.Name
	case name == "":
		name = "trace:" + sp.TraceSHA256[:12]
	}
	return name + "/" + cfg.Design.Name() + "/" + string(cfg.Tracker)
}
