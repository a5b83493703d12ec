// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock from event to event; all model code
// runs synchronously inside event callbacks. Determinism is guaranteed by a
// stable tie-break on (time, sequence) and by routing every source of
// randomness through the simulator's seeded RNG.
//
// The event core is allocation-free in steady state: scheduled events live
// in a concrete indexed 4-ary min-heap of pointer-free (time, seq, id)
// entries, their payload items are recycled through a free list, and
// Handles carry a generation counter so a handle to an already-run (and
// possibly recycled) event is safely inert. The AtArg/
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

// item is a scheduled event's payload. Items are pooled: gen increments
// every time an item is released, invalidating outstanding Handles before
// the item can be reused. id is the item's permanent slot in the
// simulator's id-indexed tables; the heap refers to the item by it.
//
//f2tree:pooled
type item struct {
	fn    Event
	argFn ArgEvent
	arg   any
	gen   uint64
	id    int32
}

// entry is one heap slot: the event's order key plus its item's id. It
// holds no pointers, so sifting compares keys inline without chasing an
// item and moves entries without GC write barriers.
type entry struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal times
	id  int32
}

// less is the total event order: (at, seq). seq is unique, so there are
// never ties and heap pop order is deterministic.
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event so it can be canceled. The generation
// pin makes stale handles safe: once the event has run or been canceled its
// item is released (bumping gen) and may be recycled for a new event, and
// the old handle must not cancel the new occupant. An item leaves the heap
// only to be released, so a matching generation means the event is pending.
type Handle struct {
	it  *item
	gen uint64
}

// Active reports whether the event is still pending.
func (h Handle) Active() bool { return h.it != nil && h.it.gen == h.gen }

// ErrStopped is returned by Run when the simulation was stopped explicitly.
var ErrStopped = errors.New("sim: stopped")

// Simulator owns the virtual clock and event queue.
type Simulator struct {
	now   Time
	heap  []entry // indexed 4-ary min-heap ordered by entry.less
	items []*item // by item id
	pos   []int32 // by item id: heap index while pending
	free  []int32 // ids of recycled items
	seq   uint64
	rng   *rand.Rand

	stopped bool

	// Counters: plain fields, read through the accessors below.
	ran         uint64
	cancelled   uint64
	peakPending int
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

// EventsCancelled returns the number of pending events removed by Cancel.
func (s *Simulator) EventsCancelled() uint64 { return s.cancelled }

// PeakPending returns the largest Pending value seen so far.
func (s *Simulator) PeakPending() int { return s.peakPending }

// Pending returns the number of events queued in the simulator. It counts
// only scheduled events: work a model holds back and schedules later under
// a reserved sequence number (packets waiting behind a link's head packet,
// see AtArgSeq) is not included.
func (s *Simulator) Pending() int { return len(s.heap) }

// get returns a fresh or recycled item.
//
//f2tree:hotpath
func (s *Simulator) get() *item {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return s.items[id]
	}
	it := &item{id: int32(len(s.items))}
	s.items = append(s.items, it) //f2tree:alloc amortized id-table growth, zero once warm
	s.pos = append(s.pos, 0)      //f2tree:alloc amortized id-table growth, zero once warm
	return it
}

// put releases an item to the free list. The generation bump here is what
// deactivates every Handle issued for the item's previous life. Only the
// callback fields in use are cleared (schedule sets one kind or the
// other), sparing GC write barriers on nil stores.
//
//f2tree:hotpath
func (s *Simulator) put(it *item) {
	it.gen++
	if it.fn != nil {
		it.fn = nil
	} else {
		it.argFn, it.arg = nil, nil
	}
	s.free = append(s.free, it.id) //f2tree:alloc amortized free-list growth, zero once warm
}

// nextSeq takes the next tie-break number.
func (s *Simulator) nextSeq() uint64 {
	q := s.seq
	s.seq++
	return q
}

// schedule enqueues one event under order key (at, seq). Scheduling in the
// past is treated as "now" (the event runs before time advances further).
//
//f2tree:hotpath
func (s *Simulator) schedule(at Time, seq uint64, fn Event, argFn ArgEvent, arg any) Handle {
	if at < s.now {
		at = s.now
	}
	it := s.get()
	if fn != nil {
		it.fn = fn
	} else {
		it.argFn, it.arg = argFn, arg
	}
	s.heap = append(s.heap, entry{at: at, seq: seq, id: it.id}) //f2tree:alloc amortized heap growth, zero once warm
	if n := len(s.heap); n > s.peakPending {
		s.peakPending = n
	}
	s.siftUp(len(s.heap) - 1)
	return Handle{it: it, gen: it.gen}
}

// At schedules fn to run at the absolute virtual time at.
//
//f2tree:hotpath
func (s *Simulator) At(at Time, fn Event) Handle {
	return s.schedule(at, s.nextSeq(), fn, nil, nil)
}

// After schedules fn to run d after the current time.
//
//f2tree:hotpath
func (s *Simulator) After(d time.Duration, fn Event) Handle {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now.Add(d), s.nextSeq(), fn, nil, nil)
}

// AtArg schedules fn(now, arg) at the absolute virtual time at. fn should
// be a package-level function; arg carries the per-event state (ideally a
// pooled pointer) so the call allocates nothing.
//
//f2tree:hotpath
func (s *Simulator) AtArg(at Time, fn ArgEvent, arg any) Handle {
	return s.schedule(at, s.nextSeq(), nil, fn, arg)
}

// AfterArg schedules fn(now, arg) to run d after the current time.
//
//f2tree:hotpath
func (s *Simulator) AfterArg(d time.Duration, fn ArgEvent, arg any) Handle {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now.Add(d), s.nextSeq(), nil, fn, arg)
}

// ReserveSeq takes the tie-break number the next scheduled event would get,
// exactly as scheduling one now would, and returns it for a later AtArgSeq.
// A model that knows an event's time now but queues it privately (a link
// direction holding packets behind its head) reserves here so the event
// keeps the place in the global order it would have had if scheduled now.
//
//f2tree:hotpath
func (s *Simulator) ReserveSeq() uint64 { return s.nextSeq() }

// AtArgSeq schedules fn(now, arg) at the absolute virtual time at under a
// sequence number obtained from ReserveSeq; it does not advance the
// sequence counter. Each reserved number must be used at most once, and
// (at, seq) must not order before the event currently running — true for
// any at later than now, and for a FIFO whose head just ran, since a FIFO's
// later entries carry later keys. Under that contract the event runs at the
// same (time, seq) position as if it had been scheduled at reservation.
//
//f2tree:hotpath
func (s *Simulator) AtArgSeq(at Time, seq uint64, fn ArgEvent, arg any) Handle {
	return s.schedule(at, seq, nil, fn, arg)
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
	s.removeAt(int(s.pos[h.it.id]))
	s.put(h.it)
	s.cancelled++
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
		s.popMin()
		it := s.items[next.id]
		s.now = next.at
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
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		s.pos[h[i].id] = int32(i)
		i = p
	}
	h[i] = e
	s.pos[e.id] = int32(i)
}

// siftDown restores the heap property from index i toward the leaves.
//
//f2tree:hotpath
func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
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
			if h[k].less(h[m]) {
				m = k
			}
		}
		if !h[m].less(e) {
			break
		}
		h[i] = h[m]
		s.pos[h[i].id] = int32(i)
		i = m
	}
	h[i] = e
	s.pos[e.id] = int32(i)
}

// popMin detaches the heap's root entry.
//
//f2tree:hotpath
func (s *Simulator) popMin() {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.heap[0] = last
		s.siftDown(0)
	}
}

// removeAt detaches the entry at heap index i, preserving the heap order
// of the rest. The caller releases its item via put.
//
//f2tree:hotpath
func (s *Simulator) removeAt(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i < n {
		s.heap[i] = last
		s.siftDown(i)
		if int(s.pos[last.id]) == i {
			s.siftUp(i)
		}
	}
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
