// Package campaign orchestrates batches of independent experiment runs —
// the paper's headline numbers are means over many (scheme × failure
// condition × seed) cells, and every cell is an isolated deterministic
// simulation, so the matrix is embarrassingly parallel.
//
// The pieces:
//
//   - Spec/Matrix (this file): a declarative run matrix expands into
//     content-hashed run specs; each spec derives its RNG seed purely from
//     its own coordinates (exp.RecoverySeed/PASeed), never from scheduling.
//   - Run (pool.go): a GOMAXPROCS-sized worker pool with panic isolation,
//     a real-time per-run timeout and bounded retry.
//   - Store (store.go): an append-only JSONL result store keyed by spec
//     hash; an interrupted or re-invoked campaign skips completed runs.
//   - Aggregate (aggregate.go): deterministic mean/p50/p99 aggregation
//     across seeds, independent of completion order.
//
// Two-clock rule: inside a run, only virtual sim.Time exists; the
// orchestration layer is the one place wall-clock time is legal (timeouts,
// progress), and each use is annotated //f2tree:wallclock for the
// simclock analyzer.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/failure"
)

// Kind selects the experiment family a spec runs.
type Kind string

// Supported experiment kinds.
const (
	// KindRecovery is one single-flow recovery pair (UDP+TCP) under a
	// Table IV failure condition — a Fig 2/Fig 4 cell.
	KindRecovery Kind = "recovery"
	// KindPA is one partition-aggregate workload run under the random
	// failure process — a Fig 6 cell.
	KindPA Kind = "pa"
	// KindChaos is one fuzzed chaos scenario checked by the invariant
	// oracles (internal/chaos) — a cell of the robustness campaign.
	KindChaos Kind = "chaos"
	// KindDetect is one detector-comparison cell (mechanism × detector ×
	// condition, see chaos.RunDetectorCell) — a cell of the production
	// failure-detection study.
	KindDetect Kind = "detect"
)

// Spec is one independent run: the experiment coordinates that fully
// determine its result. Specs are the unit of scheduling, caching and
// seeding; two specs with equal Key() are the same run.
type Spec struct {
	Kind   Kind   `json:"kind"`
	Scheme string `json:"scheme"`
	Ports  int    `json:"ports"`
	// Condition is the failure condition: a Table IV label ("C1".."C7")
	// for recovery runs, or additionally a churn fault ("flap-storm",
	// "ctrl-crash", "false-detect", "rand") for detect runs.
	Condition string `json:"condition,omitempty"`
	// Control is the control plane ("ospf", "bgp", "centralized");
	// recovery runs only, empty means ospf.
	Control string `json:"control,omitempty"`
	// Mechanism is the recovery mechanism ("f2tree", "gr", "reconv");
	// detect runs only.
	Mechanism string `json:"mechanism,omitempty"`
	// Detector is the detector model ("fixed", "bfd"); detect runs only.
	Detector string `json:"detector,omitempty"`
	// Channels is the concurrent-failure level; pa runs only.
	Channels int `json:"channels,omitempty"`
	// HorizonMS overrides the recovery run length (0 = the 2 s default).
	HorizonMS int `json:"horizon_ms,omitempty"`
	// DurationMS overrides the pa workload window (0 = the 600 s default).
	DurationMS int `json:"duration_ms,omitempty"`
	// NoBackground skips pa background traffic (faster smoke campaigns).
	NoBackground bool `json:"no_background,omitempty"`
	// BaseSeed is the campaign-level seed; the run seed is derived from it
	// and the coordinates above (see Seed).
	BaseSeed int64 `json:"base_seed"`
	// Rep is the replicate index; replicates differ only in derived seed.
	Rep int `json:"rep"`
}

// Key is the canonical encoding of the spec: its JSON with the struct's
// fixed field order. It is the identity used for hashing, caching and
// deterministic ordering.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("campaign: marshaling spec: %v", err))
	}
	return string(b)
}

// Hash is the content hash of the spec's Key — the JSONL store's cache
// key. 16 hex characters (64 bits) keep records readable while making
// accidental collisions within one campaign implausible.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:8])
}

// Seed derives the run's RNG seed from the spec alone, via the shared
// exp-level convention, so results never depend on worker scheduling.
func (s Spec) Seed() int64 {
	switch s.Kind {
	case KindPA:
		return exp.PASeed(s.BaseSeed, exp.Scheme(s.Scheme), s.Ports, s.Channels, s.Rep)
	case KindChaos:
		return exp.ChaosSeed(s.BaseSeed, exp.Scheme(s.Scheme), s.Ports, s.control(), s.Rep)
	case KindDetect:
		return exp.DetectSeed(s.BaseSeed, exp.Scheme(s.Scheme), s.Ports,
			s.Mechanism, s.Detector, s.Condition, s.Rep)
	default:
		cond, _ := ParseCondition(s.Condition)
		return exp.RecoverySeed(s.BaseSeed, exp.Scheme(s.Scheme), s.Ports, cond, s.control(), s.Rep)
	}
}

func (s Spec) control() string {
	if s.Control == "" {
		return exp.ControlOSPF
	}
	return s.Control
}

// Validate rejects specs the runners cannot execute.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindRecovery:
		if _, err := ParseCondition(s.Condition); err != nil {
			return err
		}
		switch s.control() {
		case exp.ControlOSPF, exp.ControlBGP, exp.ControlCentralized:
		default:
			return fmt.Errorf("campaign: unknown control plane %q", s.Control)
		}
	case KindPA:
		if s.Channels <= 0 {
			return fmt.Errorf("campaign: pa spec needs channels ≥ 1")
		}
		if s.Control != "" && s.Control != exp.ControlOSPF {
			return fmt.Errorf("campaign: pa runs support only ospf")
		}
	case KindChaos:
		switch s.control() {
		case exp.ControlOSPF, exp.ControlBGP, exp.ControlCentralized:
		default:
			return fmt.Errorf("campaign: unknown control plane %q", s.Control)
		}
	case KindDetect:
		if !containsString(chaos.DetectorMechanisms(), s.Mechanism) {
			return fmt.Errorf("campaign: unknown mechanism %q (want one of %v)",
				s.Mechanism, chaos.DetectorMechanisms())
		}
		if !containsString(chaos.DetectorModes(), s.Detector) {
			return fmt.Errorf("campaign: unknown detector %q (want one of %v)",
				s.Detector, chaos.DetectorModes())
		}
		if !containsString(chaos.DetectorConditions(), s.Condition) {
			return fmt.Errorf("campaign: unknown detect condition %q", s.Condition)
		}
	default:
		return fmt.Errorf("campaign: unknown kind %q", s.Kind)
	}
	if s.Ports < 4 {
		return fmt.Errorf("campaign: ports = %d, need ≥ 4", s.Ports)
	}
	if s.Rep < 0 {
		return fmt.Errorf("campaign: negative rep %d", s.Rep)
	}
	return nil
}

// ParseCondition maps a Table IV label ("C1".."C7", case-insensitive) back
// to the failure condition. It is the one condition parser shared by the
// campaign, serve and scenario front ends.
func ParseCondition(label string) (failure.Condition, error) {
	for _, c := range failure.AllConditions() {
		if strings.EqualFold(c.String(), label) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown failure condition %q (want C1..C7)", label)
}

// Matrix is a declarative run matrix: the cross product of its axes
// expands into one Spec per cell per replicate. Zero-valued axes take
// defaults in Expand.
type Matrix struct {
	Kind       Kind
	Schemes    []exp.Scheme
	Ports      []int
	Conditions []failure.Condition // recovery axis
	Controls   []string            // recovery axis; default {ospf}
	Channels   []int               // pa axis; default {1}
	// Detect axes; defaults: all mechanisms, all detector modes, the
	// full chaos.DetectorConditions catalog.
	Mechanisms       []string
	Detectors        []string
	DetectConditions []string
	// Reps is the number of seed replicates per cell (default 1).
	Reps     int
	BaseSeed int64
	// HorizonMS / DurationMS / NoBackground pass through to every spec.
	HorizonMS    int
	DurationMS   int
	NoBackground bool
	// SkipInapplicable drops (scheme, condition) cells the topology cannot
	// express (Table IV's C6/C7 need F²Tree's across links) instead of
	// recording them as failed runs.
	SkipInapplicable bool
}

// Expand enumerates the matrix into specs, in a deterministic order
// (schemes, then ports, then the kind's own axes — conditions/controls,
// channels, or mechanisms/detectors/detect conditions — then reps,
// exactly the nesting below).
func (m Matrix) Expand() []Spec {
	reps := m.Reps
	if reps <= 0 {
		reps = 1
	}
	controls := m.Controls
	if len(controls) == 0 {
		controls = []string{exp.ControlOSPF}
	}
	channels := m.Channels
	if len(channels) == 0 {
		channels = []int{1}
	}
	mechanisms := m.Mechanisms
	if len(mechanisms) == 0 {
		mechanisms = chaos.DetectorMechanisms()
	}
	detectors := m.Detectors
	if len(detectors) == 0 {
		detectors = chaos.DetectorModes()
	}
	detectConds := m.DetectConditions
	if len(detectConds) == 0 {
		detectConds = chaos.DetectorConditions()
	}
	var out []Spec
	add := func(s Spec) {
		for rep := 0; rep < reps; rep++ {
			s.Rep = rep
			out = append(out, s)
		}
	}
	for _, scheme := range m.Schemes {
		for _, ports := range m.Ports {
			base := Spec{
				Kind: m.Kind, Scheme: string(scheme), Ports: ports,
				BaseSeed: m.BaseSeed, HorizonMS: m.HorizonMS,
				DurationMS: m.DurationMS, NoBackground: m.NoBackground,
			}
			switch m.Kind {
			case KindPA:
				for _, ch := range channels {
					s := base
					s.Channels = ch
					add(s)
				}
			case KindChaos:
				for _, control := range controls {
					s := base
					s.Control = control
					add(s)
				}
			case KindDetect:
				for _, mech := range mechanisms {
					for _, det := range detectors {
						for _, cond := range detectConds {
							s := base
							s.Mechanism = mech
							s.Detector = det
							s.Condition = cond
							add(s)
						}
					}
				}
			default:
				for _, cond := range m.Conditions {
					if m.SkipInapplicable && !conditionApplies(scheme, cond) {
						continue
					}
					for _, control := range controls {
						s := base
						s.Condition = cond.String()
						s.Control = control
						add(s)
					}
				}
			}
		}
	}
	return out
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// conditionApplies reports whether the scheme's topology can express the
// condition: C6/C7 reference the across links only F²Tree-rewired fabrics
// have.
func conditionApplies(s exp.Scheme, c failure.Condition) bool {
	if c.FatTreeApplicable() {
		return true
	}
	switch s {
	case exp.SchemeF2Tree, exp.SchemeF2Proto, exp.SchemeF2Wide,
		exp.SchemeF2LeafSpine, exp.SchemeF2VL2:
		return true
	}
	return false
}
