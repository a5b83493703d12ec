// Package state is the upstream half of the interprocedural fixture: it
// declares marked types and helper functions whose contracts travel to
// the app package only as exported facts — the wrappers hide every
// violation from a per-package analysis of their callers. It also carries
// one live suppression, so an audit of the module has a directive whose
// liveness depends on the findings of this exact checkout.
package state

import "time"

// Table stands in for a per-switch FIB table.
type Table struct {
	routes map[uint32]int
}

// New returns a fresh table.
func New() *Table { return &Table{routes: make(map[uint32]int)} }

// Size counts the table's routes.
func (t *Table) Size() int {
	n := 0
	//f2tree:unordered counting does not depend on iteration order
	for range t.routes {
		n++
	}
	return n
}

// Wrap allocates only through its helper, so a caller's package sees no
// allocation syntactically — only the exported allocates fact.
func Wrap(n int) []int { return allocHelper(n) }

func allocHelper(n int) []int { return make([]int, n) }

// WrapClock hides a wall-clock read behind one call level.
func WrapClock() int64 { return readClock() }

func readClock() int64 { return time.Now().UnixNano() }

// Rec is a pooled record.
//
//f2tree:pooled
type Rec struct {
	N int
}

var sink []*Rec

// Keep retains its argument on a package-level list, exporting the
// retains:0 fact.
func Keep(r *Rec) {
	sink = append(sink, r)
}
