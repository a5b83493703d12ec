package sim

import (
	"math/rand"
	"testing"
	"time"
)

// orderModel is the reference the event core is checked against: every
// scheduled event with its (at, seq) key and whether it is still pending.
// The next event to run is always the pending one with the least key.
type orderModel struct {
	t    *testing.T
	s    *Simulator
	rng  *rand.Rand
	recs []modelRec
	// reserved holds sequence numbers taken by ReserveSeq and not yet
	// scheduled.
	reserved  []uint64
	nextSeq   uint64 // the model's own copy of the sequence counter
	pending   int
	peak      int
	cancelled uint64
	ran       []int // ids in run order
	ops       int   // remaining nested scheduling budget
}

type modelRec struct {
	at      Time
	seq     uint64
	h       Handle
	pending bool
}

// minPending returns the id of the pending record with the least key.
func (m *orderModel) minPending() int {
	best := -1
	for id, r := range m.recs {
		if !r.pending {
			continue
		}
		if best < 0 || r.at < m.recs[best].at || (r.at == m.recs[best].at && r.seq < m.recs[best].seq) {
			best = id
		}
	}
	return best
}

// fire is the callback of every modelled event: it must be the model's
// least pending key, then it performs a few more random operations, as
// model code scheduling from inside callbacks does.
func (m *orderModel) fire(now Time, id int) {
	want := m.minPending()
	if want != id {
		m.t.Fatalf("ran event %d at %v, model expects %d (key %v/%d)", id, now, want, m.recs[want].at, m.recs[want].seq)
	}
	if now != m.recs[id].at {
		m.t.Fatalf("event %d ran at %v, scheduled for %v", id, now, m.recs[id].at)
	}
	m.recs[id].pending = false
	m.pending--
	m.ran = append(m.ran, id)
	for k := m.rng.Intn(3); k > 0 && m.ops > 0; k-- {
		m.ops--
		m.step()
	}
}

func modelFire(now Time, arg any) {
	c := arg.(*modelCall)
	c.m.fire(now, c.id)
}

type modelCall struct {
	m  *orderModel
	id int
}

// add records a newly scheduled event under its key; at is already
// clamped to now.
func (m *orderModel) add(at Time, seq uint64, h Handle) {
	m.recs = append(m.recs, modelRec{at: at, seq: seq, h: h, pending: true})
	m.pending++
	if m.pending > m.peak {
		m.peak = m.pending
	}
}

// step performs one random operation on both the simulator and the model.
func (m *orderModel) step() {
	s := m.s
	now := s.Now()
	// Times up to 50 µs away, with ties likely, and some in the past.
	at := now + Time(m.rng.Intn(11)-2)*5*Microsecond
	clamp := func(t Time) Time {
		if t < now {
			return now
		}
		return t
	}
	id := len(m.recs)
	call := &modelCall{m: m, id: id}
	switch op := m.rng.Intn(8); op {
	case 0:
		h := s.At(at, func(now Time) { m.fire(now, id) })
		m.add(clamp(at), m.nextSeq, h)
		m.nextSeq++
	case 1:
		h := s.AtArg(at, modelFire, call)
		m.add(clamp(at), m.nextSeq, h)
		m.nextSeq++
	case 2:
		d := at.Sub(now)
		h := s.After(d, func(now Time) { m.fire(now, id) })
		m.add(clamp(at), m.nextSeq, h)
		m.nextSeq++
	case 3:
		h := s.AfterArg(at.Sub(now), modelFire, call)
		m.add(clamp(at), m.nextSeq, h)
		m.nextSeq++
	case 4:
		// Reserve now; scheduled by a later step.
		seq := s.ReserveSeq()
		if seq != m.nextSeq {
			m.t.Fatalf("ReserveSeq = %d, model counter %d", seq, m.nextSeq)
		}
		m.nextSeq++
		m.reserved = append(m.reserved, seq)
	case 5:
		// Schedule under a reserved number, strictly in the future so the
		// key cannot order before the running event (AtArgSeq's contract).
		if len(m.reserved) == 0 {
			return
		}
		k := m.rng.Intn(len(m.reserved))
		seq := m.reserved[k]
		m.reserved = append(m.reserved[:k], m.reserved[k+1:]...)
		at := now + Time(1+m.rng.Intn(10))*5*Microsecond
		h := s.AtArgSeq(at, seq, modelFire, call)
		m.add(at, seq, h)
	default:
		// Cancel any handle ever issued: pending, already run, already
		// cancelled, or on a recycled item.
		if len(m.recs) == 0 {
			return
		}
		k := m.rng.Intn(len(m.recs))
		r := &m.recs[k]
		if got := r.h.Active(); got != r.pending {
			m.t.Fatalf("handle %d Active = %v, model pending = %v", k, got, r.pending)
		}
		if got := s.Cancel(r.h); got != r.pending {
			m.t.Fatalf("Cancel(handle %d) = %v, model pending = %v", k, got, r.pending)
		}
		if r.pending {
			r.pending = false
			m.pending--
			m.cancelled++
		}
	}
	if got := s.Pending(); got != m.pending {
		m.t.Fatalf("Pending = %d, model %d", got, m.pending)
	}
}

// TestEventOrderMatchesModel drives the event core with seeded random
// interleavings of At/AtArg/After/AfterArg, ReserveSeq followed later by
// AtArgSeq, and Cancel on live and stale handles — from outside Run and
// from inside callbacks, across Run horizons — and checks every event runs
// exactly when a reference ordered by (at, seq) says it must.
func TestEventOrderMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		s := New(seed)
		m := &orderModel{t: t, s: s, rng: rand.New(rand.NewSource(seed)), ops: 400}
		for round := 0; round < 20; round++ {
			for k := 0; k < 10; k++ {
				m.step()
			}
			// Advance partway, so later steps schedule into a clock that
			// has moved and some events wait past the horizon.
			if err := s.Run(s.Now() + Time(m.rng.Intn(30))*Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		// Use up the leftover reservations, then drain.
		for _, seq := range m.reserved {
			id := len(m.recs)
			at := s.Now() + Microsecond
			m.add(at, seq, s.AtArgSeq(at, seq, modelFire, &modelCall{m: m, id: id}))
		}
		m.reserved = nil
		m.ops = 0
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if m.pending != 0 || s.Pending() != 0 {
			t.Fatalf("seed %d: %d model / %d sim events left after drain", seed, m.pending, s.Pending())
		}
		for i := 1; i < len(m.ran); i++ {
			a, b := m.recs[m.ran[i-1]], m.recs[m.ran[i]]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				t.Fatalf("seed %d: run order not sorted by (at, seq) at position %d", seed, i)
			}
		}
		if got := s.EventsRun(); got != uint64(len(m.ran)) {
			t.Fatalf("seed %d: EventsRun = %d, model ran %d", seed, got, len(m.ran))
		}
		if got := s.EventsCancelled(); got != m.cancelled {
			t.Fatalf("seed %d: EventsCancelled = %d, model %d", seed, got, m.cancelled)
		}
		if got := s.PeakPending(); got != m.peak {
			t.Fatalf("seed %d: PeakPending = %d, model %d", seed, got, m.peak)
		}
		if s.nextSeq() != m.nextSeq {
			t.Fatalf("seed %d: sequence counter diverged from the model", seed)
		}
	}
}

// TestReserveSeqKeepsPlace pins the contract AtArgSeq exists for: an event
// scheduled later under a number reserved earlier runs before events
// scheduled at the same instant after the reservation.
func TestReserveSeqKeepsPlace(t *testing.T) {
	s := New(1)
	var got []string
	seq := s.ReserveSeq()
	s.At(10*Millisecond, func(Time) { got = append(got, "later") })
	s.After(time.Millisecond, func(Time) {
		s.AtArgSeq(10*Millisecond, seq, func(_ Time, arg any) { got = append(got, arg.(string)) }, "reserved")
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "reserved" || got[1] != "later" {
		t.Fatalf("order = %v, want [reserved later]", got)
	}
}
