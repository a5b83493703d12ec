package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"time"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchMatrixDeterministic(t *testing.T) {
	for _, wl := range []string{wlRecovery, wlPA} {
		gen := func(seed int64) []byte {
			var all []any
			for i := 0; i < 3; i++ {
				specs, err := batchSpecs(wl, seed, i)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, specs)
			}
			return mustJSON(t, all)
		}
		if a, b := gen(1), gen(1); !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different matrices", wl)
		}
		if a, b := gen(1), gen(2); bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same matrix", wl)
		}
		b0, _ := batchSpecs(wl, 1, 0)
		b1, _ := batchSpecs(wl, 1, 1)
		if bytes.Equal(mustJSON(t, b0), mustJSON(t, b1)) {
			t.Errorf("%s: batches 0 and 1 are identical", wl)
		}
	}
}

func TestBatchMatrixShape(t *testing.T) {
	rec, _ := batchSpecs(wlRecovery, 1, 0)
	if len(rec) != 12 { // fat tree C1–C5 plus F²Tree C1–C7
		t.Errorf("recovery batch has %d runs, want 12", len(rec))
	}
	pa, _ := batchSpecs(wlPA, 1, 0)
	if len(pa) != 4 { // both schemes × {1, 5} failure channels
		t.Errorf("pa batch has %d runs, want 4", len(pa))
	}
	for _, s := range append(rec, pa...) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Key(), err)
		}
	}
}

func TestQueryStreamDeterministic(t *testing.T) {
	links, err := newLinkCatalog()
	if err != nil {
		t.Fatal(err)
	}
	a := mustJSON(t, genQueries(1, 200, links))
	if b := mustJSON(t, genQueries(1, 200, links)); !bytes.Equal(a, b) {
		t.Error("same seed gave different query streams")
	}
	if b := mustJSON(t, genQueries(2, 200, links)); bytes.Equal(a, b) {
		t.Error("seeds 1 and 2 gave the same query stream")
	}
	// A shorter run consumes a prefix of the same stream.
	long := genQueries(1, 200, links)
	if short := genQueries(1, 60, links); !bytes.Equal(mustJSON(t, short), mustJSON(t, long[:60])) {
		t.Error("a 60-query stream is not a prefix of the 200-query stream")
	}
	if a, b := mustJSON(t, genDue(1, 100)), mustJSON(t, genDue(1, 100)); !bytes.Equal(a, b) {
		t.Error("same seed gave different schedules")
	}
	if a, b := mustJSON(t, genDue(1, 100)), mustJSON(t, genDue(2, 100)); bytes.Equal(a, b) {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
}

func TestQueryStreamMix(t *testing.T) {
	links, err := newLinkCatalog()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	qs := genQueries(3, rounds*roundSize(), links)
	repeats := 0
	seen := map[whatifConfig]int{}
	for i, q := range qs {
		if q.Repeat >= 0 {
			repeats++
			if q.Repeat >= i || qs[q.Repeat].key() != q.key() {
				t.Fatalf("query %d repeats %d, which is not an earlier copy", i, q.Repeat)
			}
			continue
		}
		seen[whatifConfig{q.Query.Scheme, q.Query.Ports, q.Query.Control}]++
		// Heavy queries are spread over the round, never back to back.
		if p := qs[max(i-1, 0)]; i > 0 && q.Query.Ports != 8 && p.Repeat < 0 && p.Query.Ports != 8 {
			t.Errorf("queries %d and %d are both heavy", i-1, i)
		}
	}
	if frac := float64(repeats) / float64(len(qs)); frac < 0.25 || frac > 0.35 {
		t.Errorf("repeat share = %.2f, want about 0.3", frac)
	}
	for _, c := range catalogue() {
		want := rounds
		if c.Ports == 8 {
			want *= lightPerRound
		}
		if n := seen[c]; n != want {
			t.Errorf("%v appears %d times fresh in %d rounds, want %d", c, n, rounds, want)
		}
	}
}

func TestDueScheduleShape(t *testing.T) {
	for _, window := range []time.Duration{time.Second, 20 * time.Second, 60 * time.Second} {
		n := streamLength(window)
		if n%roundSize() != 0 || n < 10*minBeyond {
			t.Errorf("a %v window holds %d queries, want whole rounds of %d and enough for a p90", window, n, roundSize())
		}
	}
	if got, want := streamLength(90*time.Second), 5*roundSize(); got != want {
		t.Errorf("a 90 s window holds %d queries, want %d at %v queries/s", got, want, offeredRate)
	}
	n := 120
	span := time.Duration(float64(n) / offeredRate * float64(time.Second))
	due := genDue(5, n)
	if len(due) != n {
		t.Fatalf("got %d due times, want %d", len(due), n)
	}
	for i, d := range due {
		if d < 0 || d >= span || (i > 0 && d < due[i-1]) {
			t.Fatalf("due[%d] = %v breaks the sorted [0, %v) schedule", i, d, span)
		}
	}
	if last := due[n-1]; last < span*9/10 {
		t.Errorf("the last query is due at %v, want near the end of the %v schedule", last, span)
	}
}

// The what-if golden digests must cover every query a pinned seed's run
// can ask, or a changed stream would leave nothing to compare.
func TestGoldenCoversPinnedStreams(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	links, err := newLinkCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		digests := g.Queries[strconv.FormatInt(seed, 10)]
		for i, q := range genQueries(seed, goldenQueries(), links) {
			if digests[q.key()] == "" {
				t.Fatalf("seed %d query %d (%s) has no golden digest; regenerate with --write-golden", seed, i, q.key())
			}
		}
	}
}
