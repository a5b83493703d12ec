package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Workload names, as BENCHMARK.json and performance reports cite them.
const (
	wlRecovery = "recovery-sweep"
	wlPA       = "pa-churn"
	wlWhatIf   = "whatif-serve"
)

// paWindowMS is the Fig 6 workload window of one pa-churn run. The paper's
// full 600 s window is the long-run option; 60 s keeps a run near 0.5 s so
// a measurement holds enough runs for a p90.
const paWindowMS = 60_000

// batchSpecs is batch i of a batch workload: the whole Fig 4 (or Fig 6)
// matrix under a base seed derived from the workload seed and i.
func batchSpecs(workload string, seed int64, i int) ([]campaign.Spec, error) {
	base := sim.DeriveSeed(seed, "perfbench", workload, strconv.Itoa(i))
	switch workload {
	case wlRecovery:
		return campaign.Fig4Matrix(base).Expand(), nil
	case wlPA:
		return campaign.Fig6Matrix(base, paWindowMS, false).Expand(), nil
	default:
		return nil, fmt.Errorf("%s is not a batch workload", workload)
	}
}

// whatifConfig is one catalogue entry of the what-if stream.
type whatifConfig struct {
	Scheme  string
	Ports   int
	Control string
}

// catalogue is every (scheme, ports, control plane) the what-if stream
// asks about: both schemes at 8/12/16 ports under OSPF and the centralized
// controller, and BGP at 8 and 12 ports (16-port BGP bootstrap takes
// seconds and would dominate the stream).
func catalogue() []whatifConfig {
	var out []whatifConfig
	for _, scheme := range []string{"f2tree", "fattree"} {
		for _, ports := range []int{8, 12, 16} {
			for _, control := range []string{exp.ControlOSPF, exp.ControlCentralized, exp.ControlBGP} {
				if control == exp.ControlBGP && ports == 16 {
					continue
				}
				out = append(out, whatifConfig{scheme, ports, control})
			}
		}
	}
	return out
}

// splitCatalogue parts the catalogue into the light 8-port configurations
// and the heavy 12- and 16-port ones.
func splitCatalogue() (light, heavy []whatifConfig) {
	for _, c := range catalogue() {
		if c.Ports == 8 {
			light = append(light, c)
		} else {
			heavy = append(heavy, c)
		}
	}
	return light, heavy
}

// lightPerRound is how often a round asks about each light configuration;
// a round asks about each heavy one once. Misses cost from about 20 ms
// (8-port centralized) to over 1 s (12-port fat-tree BGP), in one band per
// configuration. Asked equally often, the configurations put the median
// on the gap between the 8-port misses (up to about 90 ms) and the 12-port
// ones (from about 100 ms), where it jumps across the gap when a few more
// or fewer of a run's queries wait. Asked twice, the light configurations
// put the median among the 8-port OSPF and BGP misses, whose costs
// (45–75 ms) lie close together, and the p90 among the 12-port BGP and
// 16-port fat-tree misses (550–750 ms); they also lower the share of time
// the workers spend on heavy queries, so fewer light ones wait.
const lightPerRound = 2

// repeatsPerRound makes about 30% of the stream repeat an earlier query
// (8 of the round's 30), so the memo cache and coalescing run while the
// medians stay on the miss path.
const repeatsPerRound = 8

// roundSize is the number of queries in one round of the stream: every
// heavy configuration once, every light one lightPerRound times, plus the
// repeats.
func roundSize() int {
	light, heavy := splitCatalogue()
	return lightPerRound*len(light) + len(heavy) + repeatsPerRound
}

// offeredRate is the whatif-serve open-loop rate in queries per second.
// At this rate the misses keep the two workers busy about 15% of the time
// on the host the benchmark was defined on, so a light query seldom waits
// behind two heavy ones: queueing is what makes latency grow faster than
// the host slows down. The rate is fixed, not calibrated per run, so a
// faster program answers the same stream with lower latency.
const offeredRate = 1.75

// streamQuery is one query of the what-if stream.
type streamQuery struct {
	// Repeat is the index of the earlier query this one repeats, -1 when
	// fresh.
	Repeat int         `json:"repeat"`
	Query  serve.Query `json:"query"`
}

// key names a query for golden digests and cache-consistency checks.
func (q streamQuery) key() string {
	b, err := json.Marshal(q.Query)
	if err != nil {
		panic(fmt.Sprintf("marshaling query: %v", err)) // plain data; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// linkCatalog lists each topology's candidate failing links: every live
// switch-to-switch link, by endpoint name, in topology order. Host links
// are left out because failing one cuts its host off for good, which no
// reroute can repair.
type linkCatalog map[string][]serve.Link

func newLinkCatalog() (linkCatalog, error) {
	lc := linkCatalog{}
	for _, c := range catalogue() {
		k := c.Scheme + "/" + strconv.Itoa(c.Ports)
		if _, ok := lc[k]; ok {
			continue
		}
		tp, err := exp.BuildTopology(exp.Scheme(c.Scheme), c.Ports)
		if err != nil {
			return nil, err
		}
		for _, l := range tp.LiveLinks() {
			a, b := tp.Node(l.A), tp.Node(l.B)
			if a.Kind == topo.Host || b.Kind == topo.Host {
				continue
			}
			lc[k] = append(lc[k], serve.Link{A: a.Name, B: b.Name})
		}
		if len(lc[k]) == 0 {
			return nil, fmt.Errorf("%s has no switch-to-switch links", k)
		}
	}
	return lc, nil
}

// genQueries is the first n queries of the seed's what-if stream. The
// stream is made of rounds. A round asks about each heavy catalogue
// configuration once and each light one lightPerRound times, each query
// failing a link drawn uniformly from its topology, and repeats
// repeatsPerRound uniformly drawn earlier queries. The heavy
// configurations (12- and 16-port fabrics) take evenly spaced slots of the
// round in shuffled order, so a seed cannot bunch them into one burst that
// queues everything behind it; the light queries and the repeats fill the
// other slots at random. The sequence depends on the seed alone, so any
// run length consumes a prefix of the same stream.
func genQueries(seed int64, n int, links linkCatalog) []streamQuery {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, "perfbench", wlWhatIf, "queries")))
	lightOnce, heavy := splitCatalogue()
	var light []whatifConfig
	for i := 0; i < lightPerRound; i++ {
		light = append(light, lightOnce...)
	}
	round := roundSize()
	heavySlot := make([]bool, round)
	for k := range heavy {
		heavySlot[(2*k+1)*round/(2*len(heavy))] = true
	}
	out := make([]streamQuery, 0, n)
	for len(out) < n {
		// The other slots take light[r] for r < len(light) and a repeat
		// otherwise, in shuffled order; the stream never opens with a
		// repeat.
		rest := rng.Perm(len(light) + repeatsPerRound)
		if len(out) == 0 && !heavySlot[0] {
			for i, r := range rest {
				if r < len(light) {
					rest[0], rest[i] = rest[i], rest[0]
					break
				}
			}
		}
		hs := append([]whatifConfig(nil), heavy...)
		rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
		for slot := 0; slot < round && len(out) < n; slot++ {
			var c whatifConfig
			switch {
			case heavySlot[slot]:
				c, hs = hs[0], hs[1:]
			case rest[0] < len(light):
				c, rest = light[rest[0]], rest[1:]
			default:
				rest = rest[1:]
				j := rng.Intn(len(out))
				out = append(out, streamQuery{Repeat: j, Query: out[j].Query})
				continue
			}
			cands := links[c.Scheme+"/"+strconv.Itoa(c.Ports)]
			l := cands[rng.Intn(len(cands))]
			out = append(out, streamQuery{Repeat: -1, Query: serve.Query{
				Kind: serve.KindWhatIf, Scheme: c.Scheme, Ports: c.Ports,
				Control: c.Control, Link: &serve.Link{A: l.A, B: l.B},
			}})
		}
	}
	return out
}

// streamLength is the measured stream's length: the whole number of
// rounds nearest to what the window offers at offeredRate, but never fewer
// than a p90 needs (4 rounds, 120 queries). Whole rounds give every run the
// same mix of configurations whatever its seed, so the latency percentiles
// vary with the program, not with the draw.
func streamLength(window time.Duration) int {
	r := roundSize()
	least := (10*minBeyond + r - 1) / r
	return r * max(least, int(math.Round(offeredRate*window.Seconds()/float64(r))))
}

// genDue is the open-loop schedule of n queries at offeredRate: n due times
// in [0, n/offeredRate s) of a Poisson process conditioned on n arrivals,
// drawn as normalized cumulative sums of n+1 exponential gaps. Fixing n
// makes every run of one length offer the same number of queries.
func genDue(seed int64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, "perfbench", wlWhatIf, "due")))
	span := float64(n) / offeredRate * float64(time.Second)
	cum := make([]float64, n+1)
	total := 0.0
	for i := range cum {
		total += rng.ExpFloat64()
		cum[i] = total
	}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(cum[i] / total * span)
	}
	return due
}
