package campaign

import (
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/failure"
)

// stubSpec builds a valid recovery spec for pool tests; rep distinguishes
// specs within one campaign.
func stubSpec(rep int) Spec {
	return Spec{Kind: KindRecovery, Scheme: "stub", Ports: 4, Condition: "C1", BaseSeed: 1, Rep: rep}
}

func TestSpecKeyHashSeedStable(t *testing.T) {
	a, b := stubSpec(0), stubSpec(0)
	if a.Key() != b.Key() || a.Hash() != b.Hash() || a.Seed() != b.Seed() {
		t.Fatal("equal specs disagree on key/hash/seed")
	}
	c := stubSpec(1)
	if a.Hash() == c.Hash() {
		t.Fatal("distinct reps share a hash")
	}
	if a.Seed() == c.Seed() {
		t.Fatal("distinct reps share a seed")
	}
	d := a
	d.Condition = "C2"
	if a.Seed() == d.Seed() {
		t.Fatal("distinct conditions share a seed")
	}
}

func TestSpecSeedMatchesExpConvention(t *testing.T) {
	s := Spec{Kind: KindRecovery, Scheme: "f2tree", Ports: 8, Condition: "C3", BaseSeed: 42}
	want := exp.RecoverySeed(42, exp.SchemeF2Tree, 8, failure.C3, exp.ControlOSPF, 0)
	if s.Seed() != want {
		t.Fatalf("spec seed %d != exp convention %d", s.Seed(), want)
	}
	p := Spec{Kind: KindPA, Scheme: "fattree", Ports: 8, Channels: 5, BaseSeed: 42, Rep: 2}
	if p.Seed() != exp.PASeed(42, exp.SchemeFatTree, 8, 5, 2) {
		t.Fatal("pa spec seed diverges from exp convention")
	}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		stubSpec(0),
		{Kind: KindPA, Scheme: "fattree", Ports: 8, Channels: 1},
		{Kind: KindRecovery, Scheme: "x", Ports: 4, Condition: "C7", Control: "bgp"},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", s.Key(), err)
		}
	}
	bad := []Spec{
		{Kind: "nonsense", Scheme: "x", Ports: 4},
		{Kind: KindRecovery, Scheme: "x", Ports: 4, Condition: "C9"},
		{Kind: KindRecovery, Scheme: "x", Ports: 4, Condition: "C1", Control: "rip"},
		{Kind: KindRecovery, Scheme: "x", Ports: 2, Condition: "C1"},
		{Kind: KindPA, Scheme: "x", Ports: 8},
		{Kind: KindPA, Scheme: "x", Ports: 8, Channels: 1, Control: "bgp"},
		{Kind: KindRecovery, Scheme: "x", Ports: 4, Condition: "C1", Rep: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted %s", s.Key())
		}
	}
}

func TestParseCondition(t *testing.T) {
	for _, c := range failure.AllConditions() {
		got, err := ParseCondition(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCondition(%s) = %v, %v", c, got, err)
		}
	}
	for label, want := range map[string]failure.Condition{"c1": failure.C1, "C1": failure.C1, "c7": failure.C7} {
		if got, err := ParseCondition(label); err != nil || got != want {
			t.Errorf("ParseCondition(%q) = %v, %v; want %v", label, got, err, want)
		}
	}
	for _, label := range []string{"C0", "C8", "C10", "", "1", "CC1"} {
		if got, err := ParseCondition(label); err == nil {
			t.Errorf("ParseCondition(%q) = %v, want an error", label, got)
		}
	}
}

func TestMatrixExpandFig4(t *testing.T) {
	specs := Fig4Matrix(42).Expand()
	// Fat tree runs C1–C5, F²Tree C1–C7: 12 cells, one rep each.
	if len(specs) != 12 {
		t.Fatalf("fig4 matrix expands to %d specs, want 12", len(specs))
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid spec %s: %v", s.Key(), err)
		}
		if seen[s.Hash()] {
			t.Fatalf("duplicate spec %s", s.Key())
		}
		seen[s.Hash()] = true
	}
}

func TestMatrixExpandRepsAndChannels(t *testing.T) {
	m := Matrix{
		Kind:     KindPA,
		Schemes:  []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Tree},
		Ports:    []int{8},
		Channels: []int{1, 5},
		Reps:     3,
		BaseSeed: 7,
	}
	specs := m.Expand()
	if len(specs) != 2*2*3 {
		t.Fatalf("expanded to %d, want 12", len(specs))
	}
	// Expansion order is deterministic: scheme-major, then channels, reps
	// innermost.
	if specs[0].Channels != 1 || specs[0].Rep != 0 || specs[1].Rep != 1 {
		t.Fatalf("unexpected expansion order: %s / %s", specs[0].Key(), specs[1].Key())
	}
}

func TestAggregateDeterministicAndCorrect(t *testing.T) {
	mk := func(rep int, loss float64) Result {
		s := stubSpec(rep)
		return Result{
			Hash: s.Hash(), Spec: s, Status: StatusOK,
			// WallMS varies run to run; it must not leak into aggregates.
			WallMS:  float64(100 + rep),
			Metrics: Metrics{"connectivity_loss_ms": loss},
		}
	}
	failedSpec := stubSpec(3)
	results := []Result{
		mk(0, 60), mk(1, 62), mk(2, 61),
		{Hash: failedSpec.Hash(), Spec: failedSpec, Status: StatusFailed, Error: "boom"},
	}
	aggs := AggregateResults(results)
	if len(aggs) != 1 {
		t.Fatalf("groups = %d, want 1", len(aggs))
	}
	a := aggs[0]
	if a.Runs != 4 || a.Failed != 1 {
		t.Fatalf("runs/failed = %d/%d, want 4/1", a.Runs, a.Failed)
	}
	st := a.Metrics["connectivity_loss_ms"]
	if st.Mean != 61 || st.P50 != 61 || st.Min != 60 || st.Max != 62 {
		t.Fatalf("bad stats %+v", st)
	}

	// Completion order must not matter.
	reversed := []Result{results[3], results[2], results[1], results[0]}
	var b1, b2 strings.Builder
	if err := WriteAggregateJSONL(&b1, aggs); err != nil {
		t.Fatal(err)
	}
	if err := WriteAggregateJSONL(&b2, AggregateResults(reversed)); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("aggregate JSONL depends on input order:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if SummaryTable(aggs) == "" || !strings.Contains(SummaryTable(aggs), "recovery/stub") {
		t.Fatal("summary table malformed")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 0.50); q != 6 {
		t.Fatalf("p50 = %v", q)
	}
	if q := quantile(sorted, 0.99); q != 10 {
		t.Fatalf("p99 = %v", q)
	}
	if q := quantile(sorted, 0); q != 1 {
		t.Fatalf("p0 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty = %v", q)
	}
}
