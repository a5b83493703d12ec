// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock from event to event; all model code
// runs synchronously inside event callbacks. Determinism is guaranteed by a
// stable tie-break on (time, sequence) and by routing every source of
// randomness through the simulator's seeded RNG.
//
// The event core is allocation-free in steady state: scheduled events live
// in a concrete indexed 4-ary min-heap of *item, items are recycled through
// a free list, and Handles carry a generation counter so a handle to an
// already-run (and possibly recycled) event is safely inert. The AtArg/
// AfterArg variants let hot paths schedule a static function plus a pooled
// argument record instead of allocating a fresh closure per event.
package sim

import (
	"errors"
	"math/rand"
	"time"
)

// Time is a virtual time instant, measured as a duration since the start of
// the simulation. It is deliberately not time.Time: simulations have no
// calendar.
type Time time.Duration

// Common virtual-time unit helpers.
const (
	Nanosecond  = Time(time.Nanosecond)
	Microsecond = Time(time.Microsecond)
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
)

// Duration converts t to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats t like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a callback scheduled to run at a virtual instant.
type Event func(now Time)

// ArgEvent is an Event that receives an opaque argument at fire time. Hot
// paths pass a package-level function here (never a fresh closure) and
// thread per-event state through arg, typically a pooled record.
type ArgEvent func(now Time, arg any)

// item is a scheduled event in the priority queue. Items are pooled: gen
// increments every time an item is released, invalidating outstanding
// Handles before the item can be reused.
//
//f2tree:pooled
type item struct {
	at    Time
	seq   uint64 // tie-break: FIFO among equal times
	fn    Event
	argFn ArgEvent
	arg   any
	index int32 // heap index; -1 once popped or canceled
	gen   uint64
}

// itemLess is the total event order: (at, seq). seq is unique, so there are
// never ties and heap pop order is deterministic.
func itemLess(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event so it can be canceled. The generation
// pin makes stale handles safe: once the event has run or been canceled its
// item may be recycled for a new event, and the old handle must not cancel
// the new occupant.
type Handle struct {
	it  *item
	gen uint64
}

// Active reports whether the event is still pending.
func (h Handle) Active() bool { return h.it != nil && h.it.gen == h.gen && h.it.index >= 0 }

// ErrStopped is returned by Run when the simulation was stopped explicitly.
var ErrStopped = errors.New("sim: stopped")

// Simulator owns the virtual clock and event queue.
type Simulator struct {
	now     Time
	heap    []*item // indexed 4-ary min-heap ordered by itemLess
	free    []*item // recycled items
	seq     uint64
	rng     *rand.Rand
	stopped bool
	ran     uint64
}

// New returns a simulator whose RNG is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation RNG. All model randomness must come from it.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsRun returns the number of events executed so far.
func (s *Simulator) EventsRun() uint64 { return s.ran }

// Pending returns the number of events still queued.
func (s *Simulator) Pending() int { return len(s.heap) }

// get returns a fresh or recycled item.
//
//f2tree:hotpath
func (s *Simulator) get() *item {
	if n := len(s.free); n > 0 {
		it := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return it
	}
	return &item{}
}

// put releases an item to the free list. The generation bump here is what
// deactivates every Handle issued for the item's previous life.
//
//f2tree:hotpath
func (s *Simulator) put(it *item) {
	it.gen++
	it.fn, it.argFn, it.arg = nil, nil, nil
	it.index = -1
	//f2tree:retained the free list IS the pool; this append is the recycle step
	s.free = append(s.free, it) //f2tree:alloc amortized free-list growth, zero once warm
}

// schedule enqueues one event. Scheduling in the past is treated as "now"
// (the event runs before time advances further).
//
//f2tree:hotpath
func (s *Simulator) schedule(at Time, fn Event, argFn ArgEvent, arg any) Handle {
	if at < s.now {
		at = s.now
	}
	it := s.get()
	it.at, it.seq = at, s.seq
	it.fn, it.argFn, it.arg = fn, argFn, arg
	s.seq++
	it.index = int32(len(s.heap))
	s.heap = append(s.heap, it) //f2tree:alloc amortized heap growth, zero once warm
	s.siftUp(len(s.heap) - 1)
	return Handle{it: it, gen: it.gen}
}

// At schedules fn to run at the absolute virtual time at.
//
//f2tree:hotpath
func (s *Simulator) At(at Time, fn Event) Handle {
	return s.schedule(at, fn, nil, nil)
}

// After schedules fn to run d after the current time.
//
//f2tree:hotpath
func (s *Simulator) After(d time.Duration, fn Event) Handle {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now.Add(d), fn, nil, nil)
}

// AtArg schedules fn(now, arg) at the absolute virtual time at. fn should
// be a package-level function; arg carries the per-event state (ideally a
// pooled pointer) so the call allocates nothing.
//
//f2tree:hotpath
func (s *Simulator) AtArg(at Time, fn ArgEvent, arg any) Handle {
	return s.schedule(at, nil, fn, arg)
}

// AfterArg schedules fn(now, arg) to run d after the current time.
//
//f2tree:hotpath
func (s *Simulator) AfterArg(d time.Duration, fn ArgEvent, arg any) Handle {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now.Add(d), nil, fn, arg)
}

// Cancel removes a pending event. Canceling an already-run, already-
// canceled or stale-generation event is a no-op. It reports whether the
// event was pending.
//
//f2tree:hotpath
func (s *Simulator) Cancel(h Handle) bool {
	if !h.Active() {
		return false
	}
	s.removeAt(int(h.it.index))
	s.put(h.it)
	return true
}

// Stop makes Run return ErrStopped after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue drains or the clock passes horizon.
// A zero horizon means "run to exhaustion". Events scheduled exactly at the
// horizon still run.
//
//f2tree:hotpath
func (s *Simulator) Run(horizon Time) error {
	for len(s.heap) > 0 {
		if s.stopped {
			return ErrStopped
		}
		next := s.heap[0]
		if horizon > 0 && next.at > horizon {
			s.now = horizon
			return nil
		}
		it := s.removeAt(0)
		s.now = it.at
		s.ran++
		fn, argFn, arg := it.fn, it.argFn, it.arg
		// Release before running: the handle is already dead (generation
		// bumped), and the callback may immediately schedule into the slot.
		s.put(it)
		if argFn != nil {
			argFn(s.now, arg)
		} else if fn != nil {
			fn(s.now)
		}
	}
	if horizon > s.now {
		s.now = horizon
	}
	return nil
}

// RunUntilIdle is Run with no horizon.
func (s *Simulator) RunUntilIdle() error { return s.Run(0) }

// siftUp restores the heap property from index i toward the root.
//
//f2tree:hotpath
func (s *Simulator) siftUp(i int) {
	it := s.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !itemLess(it, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heap[i].index = int32(i)
		i = p
	}
	s.heap[i] = it
	it.index = int32(i)
}

// siftDown restores the heap property from index i toward the leaves.
//
//f2tree:hotpath
func (s *Simulator) siftDown(i int) {
	n := len(s.heap)
	it := s.heap[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if itemLess(s.heap[k], s.heap[m]) {
				m = k
			}
		}
		if !itemLess(s.heap[m], it) {
			break
		}
		s.heap[i] = s.heap[m]
		s.heap[i].index = int32(i)
		i = m
	}
	s.heap[i] = it
	it.index = int32(i)
}

// removeAt detaches the item at heap index i, preserving the heap order of
// the rest, and returns it with index −1. The caller releases it via put.
//
//f2tree:hotpath
func (s *Simulator) removeAt(i int) *item {
	n := len(s.heap) - 1
	it := s.heap[i]
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	if i < n {
		s.heap[i] = last
		last.index = int32(i)
		s.siftDown(i)
		if int(last.index) == i {
			s.siftUp(i)
		}
	}
	it.index = -1
	return it
}

// ticker carries the state of one repeating timer; pooled per Ticker call
// so each tick schedules without allocating.
type ticker struct {
	s        *Simulator
	interval time.Duration
	fn       Event
	h        Handle
	stopped  bool
}

// tickerFire is the static re-arming callback for Ticker.
//
//f2tree:hotpath
func tickerFire(now Time, arg any) {
	t := arg.(*ticker)
	if t.stopped {
		return
	}
	t.fn(now)
	t.h = t.s.AfterArg(t.interval, tickerFire, t)
}

func (t *ticker) stop() {
	t.stopped = true
	t.s.Cancel(t.h)
}

// Ticker invokes fn every interval until canceled via the returned stop
// function.
func (s *Simulator) Ticker(interval time.Duration, fn Event) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	t := &ticker{s: s, interval: interval, fn: fn}
	t.h = s.AfterArg(interval, tickerFire, t)
	return t.stop
}
