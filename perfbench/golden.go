package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

// Golden digests pin the outputs of the default seed and one held-out
// seed. Regenerate them only when a change is meant to alter simulated
// results:
//
//	python3 perfbench/run.py --workload <name> --write-golden
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// goldenBatches covers a 60 s run of a batch workload on a host several
// times faster than the one the benchmark was defined on; the what-if
// golden covers every query a run of up to 60 s asks. Later batches are
// checked by the oracles only.
const goldenBatches = 64

func goldenQueries() int { return streamLength(60 * time.Second) }

//go:embed golden.json
var goldenJSON []byte

// goldenFile is golden.json: per-batch digests of the batch workloads and
// per-query report digests of the what-if stream, by seed.
type goldenFile struct {
	Batches map[string]map[string][]string `json:"batches"` // workload → seed → digests
	Queries map[string]map[string]string   `json:"queries"` // seed → query key → digest
}

func loadGolden() (*goldenFile, error) {
	g := &goldenFile{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Batches == nil {
		g.Batches = map[string]map[string][]string{}
	}
	if g.Queries == nil {
		g.Queries = map[string]map[string]string{}
	}
	return g, nil
}

// writeGoldenFile recomputes one workload's golden digests for both pinned
// seeds and rewrites the golden file at path.
func writeGoldenFile(path, workload string, workers int) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		key := strconv.FormatInt(seed, 10)
		switch workload {
		case wlRecovery, wlPA:
			var digests []string
			for i := 0; i < goldenBatches; i++ {
				specs, err := batchSpecs(workload, seed, i)
				if err != nil {
					return err
				}
				out, err := campaign.Run(specs, campaign.ExperimentRunner(), campaign.Options{Parallelism: workers})
				if err != nil {
					return err
				}
				for _, r := range out.Results {
					if r.Status != campaign.StatusOK {
						return fmt.Errorf("seed %d batch %d %s: %s", seed, i, r.Spec.Key(), r.Error)
					}
					if why := oracle(r); why != "" {
						return fmt.Errorf("seed %d batch %d %s: %s", seed, i, r.Spec.Key(), why)
					}
				}
				digests = append(digests, batchDigest(out.Results))
			}
			if g.Batches[workload] == nil {
				g.Batches[workload] = map[string][]string{}
			}
			g.Batches[workload][key] = digests
		case wlWhatIf:
			digests, err := queryGolden(seed, workers)
			if err != nil {
				return err
			}
			g.Queries[key] = digests
		default:
			return fmt.Errorf("unknown workload %q", workload)
		}
		fmt.Fprintf(os.Stderr, "perfbench: golden %s seed %d done\n", workload, seed)
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// queryGolden answers every distinct query of the seed's golden stream
// prefix in process and digests each report.
func queryGolden(seed int64, workers int) (map[string]string, error) {
	links, err := newLinkCatalog()
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var distinct []streamQuery
	seen := map[string]bool{}
	for _, q := range genQueries(seed, goldenQueries(), links) {
		if !seen[q.key()] {
			seen[q.key()] = true
			distinct = append(distinct, q)
		}
	}
	out := make(map[string]string, len(distinct))
	var mu sync.Mutex
	var firstErr error
	forEach(workers, len(distinct), func(i int) {
		q := distinct[i]
		rep, _, err := srv.Answer(q.Query)
		if err == nil && len(rep.Violations) > 0 {
			err = fmt.Errorf("oracle violations %v", rep.Violations)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("query %s: %w", q.key(), err)
			}
			return
		}
		out[q.key()] = reportDigest(rep)
	})
	return out, firstErr
}
