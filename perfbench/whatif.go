package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
)

// service is the what-if server under test, listening on loopback, and the
// benchmark's HTTP client for it.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	client *http.Client
	url    string
}

// startService starts a memory-only server with the given worker count
// and a client that opens at most that many connections to it. Both speak
// HTTP/2 over cleartext, so every query is sent when it is due, however
// many are in flight: misses queue in the server's worker pool, and hits
// are answered at once instead of waiting behind misses for a connection.
func startService(workers int) (*service, error) {
	srv, err := serve.NewServer(serve.Config{Workers: workers, Timeout: runTimeout})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h2c http.Protocols
	h2c.SetUnencryptedHTTP2(true)
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), Protocols: &h2c},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: runTimeout + 30*time.Second,
			Transport: &http.Transport{
				Protocols:           &h2c,
				MaxConnsPerHost:     workers,
				MaxIdleConnsPerHost: workers,
				DisableCompression:  true,
			},
		},
	}
	go func() {
		defer close(s.served)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: http server: %v\n", err)
		}
	}()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, and drains
// the server's pool.
func (s *service) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.srv.Close()
}

// post sends one query to POST /query and decodes the answer.
func (s *service) post(q serve.Query) (serve.Response, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return serve.Response{}, err
	}
	resp, err := s.client.Post(s.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Response{}, err
	}
	var r serve.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("decoding answer (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || r.Error != "" || r.Report == nil {
		return r, fmt.Errorf("HTTP %d: %s", resp.StatusCode, r.Error)
	}
	return r, nil
}

// warmQueries are the set-up queries: each control plane on a small
// fabric, then the two configurations that need the most memory, 12-port
// fat-tree BGP and 16-port fat-tree OSPF, at once. They fail a link at
// 250 ms, a time no stream query uses, so the stream never hits their
// cache entries. The concurrent pair sets the heap's high-water mark to
// the largest two labs, so peak_rss_mb does not depend on whether the
// stream happens to overlap them.
func warmQueries(links linkCatalog) (small, large []serve.Query) {
	query := func(scheme string, ports int, control string) serve.Query {
		l := links[scheme+"/"+strconv.Itoa(ports)][0]
		return serve.Query{
			Kind: serve.KindWhatIf, Scheme: scheme, Ports: ports, Control: control,
			Link: &serve.Link{A: l.A, B: l.B}, FailAtMs: 250,
		}
	}
	for _, control := range []string{exp.ControlOSPF, exp.ControlCentralized, exp.ControlBGP} {
		small = append(small, query("f2tree", 8, control))
	}
	large = []serve.Query{query("fattree", 12, exp.ControlBGP), query("fattree", 16, exp.ControlOSPF)}
	return small, large
}

// whatifBench drives whatif-serve: an open-loop stream of what-if queries
// over loopback HTTP.
type whatifBench struct {
	seed    int64
	workers int
	golden  map[string]string // query key → report digest, for this seed

	links linkCatalog
	svc   *service
	tally tally
}

// setup makes the stream's link catalogue, starts a fresh service and
// answers the warm-up queries through it.
func (w *whatifBench) setup() error {
	if w.svc != nil {
		w.svc.close()
		w.svc = nil
	}
	links, err := newLinkCatalog()
	if err != nil {
		return err
	}
	svc, err := startService(w.workers)
	if err != nil {
		return err
	}
	w.links, w.svc = links, svc
	small, large := warmQueries(links)
	for _, q := range small {
		if _, err := svc.post(q); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}
	errs := make([]error, len(large))
	var wg sync.WaitGroup
	for i, q := range large {
		wg.Add(1)
		go func(i int, q serve.Query) {
			defer wg.Done()
			_, errs[i] = svc.post(q)
		}(i, q)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	return nil
}

// answer is one query's outcome in a pass.
type answer struct {
	resp    serve.Response
	err     error
	latency time.Duration
	lag     time.Duration
}

// pass is one open-loop run of a stream prefix.
type pass struct {
	items   []streamQuery
	answers []answer
	wall    time.Duration // from the schedule's start to the last answer
	lagMax  time.Duration
}

// drive sends each query at its due time, each from its own goroutine, and
// waits for every answer. A miss's wait in the server's queue is part of
// its latency.
func (w *whatifBench) drive(items []streamQuery, due []time.Duration, tr *tracer) *pass {
	p := &pass{items: items, answers: make([]answer, len(items))}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Duration
	start := time.Now()
	for i := range items {
		if d := due[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(start)
		wg.Add(1)
		go func(i int, sent time.Duration) {
			defer wg.Done()
			t0 := time.Now()
			resp, err := w.svc.post(items[i].Query)
			done := time.Since(start)
			tr.record(0, 0, "query "+strconv.Itoa(i), "serve.query", t0, time.Now())
			latency, lag := openLoopSample(due[i], sent, done)
			p.answers[i] = answer{resp: resp, err: err, latency: latency, lag: lag}
			mu.Lock()
			last = max(last, done)
			mu.Unlock()
		}(i, sent)
	}
	wg.Wait()
	p.wall = last
	for _, a := range p.answers {
		p.lagMax = max(p.lagMax, a.lag)
	}
	return p
}

// reportDigest is what the golden file pins for a what-if answer: the
// run's trace hash and its blackhole window.
func reportDigest(r *serve.Report) string {
	return r.TraceHash + "/" + strconv.FormatInt(r.BlackholeMs, 10)
}

// check counts a pass's queries and failures: errors and timeouts, oracle
// violations, golden mismatches, and hits or coalesced answers whose
// report differs from the miss that computed it.
func (w *whatifBench) check(p *pass) {
	w.tally.add(len(p.items), 0)
	missDigest := map[string]string{}
	for i, a := range p.answers {
		if a.err == nil && !a.resp.Cached && !a.resp.Coalesced {
			missDigest[p.items[i].key()] = reportDigest(a.resp.Report)
		}
	}
	for i, a := range p.answers {
		q := p.items[i]
		label := fmt.Sprintf("query %d (%s/%d %s %s-%s)", i, q.Query.Scheme, q.Query.Ports,
			q.Query.Control, q.Query.Link.A, q.Query.Link.B)
		if a.err != nil {
			w.tally.fail("%s: %v", label, a.err)
			continue
		}
		rep := a.resp.Report
		got := reportDigest(rep)
		switch {
		case len(rep.Violations) > 0:
			w.tally.fail("%s: oracle violations %v", label, rep.Violations)
		case (a.resp.Cached || a.resp.Coalesced) && missDigest[q.key()] != "" && missDigest[q.key()] != got:
			w.tally.fail("%s: cached answer %s differs from its miss %s", label, got, missDigest[q.key()])
		case len(w.golden) > 0 && i < goldenQueries() && w.golden[q.key()] == "":
			// A pinned seed's stream must be the one its digests were made
			// from, or the comparison below would pass vacuously.
			w.tally.fail("%s: no golden digest for query %s", label, q.key())
		case w.golden[q.key()] != "" && w.golden[q.key()] != got:
			w.tally.fail("%s: answer %s, golden %s", label, got, w.golden[q.key()])
		}
	}
}

// recheck answers the pass's first fresh 8-port query again on a separate
// in-process server, which must recompute the same report.
func (w *whatifBench) recheck(p *pass) {
	for i, q := range p.items {
		a := p.answers[i]
		if q.Repeat >= 0 || q.Query.Ports != 8 || a.err != nil {
			continue
		}
		w.tally.add(1, 0)
		srv, err := serve.NewServer(serve.Config{Workers: 1, Timeout: runTimeout})
		if err != nil {
			w.tally.fail("recheck: %v", err)
			return
		}
		defer srv.Close()
		rep, _, err := srv.Answer(q.Query)
		if err != nil {
			w.tally.fail("recheck query %d: %v", i, err)
		} else if got, want := reportDigest(rep), reportDigest(a.resp.Report); got != want {
			w.tally.fail("recheck query %d: recomputed %s, served %s", i, got, want)
		}
		return
	}
}

// latencies returns a pass's per-query latencies in milliseconds.
func (p *pass) latencies() []float64 {
	out := make([]float64, 0, len(p.answers))
	for _, a := range p.answers {
		out = append(out, ms(a.latency))
	}
	return out
}

// queryDetail is one query's outcome in the run record.
type queryDetail struct {
	Config    string  `json:"config"`
	Repeat    int     `json:"repeat"`
	Cached    bool    `json:"cached,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	LatencyMs float64 `json:"latencyMs"`
	LagMs     float64 `json:"lagMs"`
	Err       string  `json:"err,omitempty"`
}

func (p *pass) detail() []queryDetail {
	out := make([]queryDetail, len(p.items))
	for i, a := range p.answers {
		q := p.items[i].Query
		out[i] = queryDetail{
			Config: fmt.Sprintf("%s/%d/%s", q.Scheme, q.Ports, q.Control), Repeat: p.items[i].Repeat,
			Cached: a.resp.Cached, Coalesced: a.resp.Coalesced,
			LatencyMs: ms(a.latency), LagMs: ms(a.lag),
		}
		if a.err != nil {
			out[i].Err = a.err.Error()
		}
	}
	return out
}

// answered counts the pass's successful answers.
func (p *pass) answered() int {
	n := 0
	for _, a := range p.answers {
		if a.err == nil {
			n++
		}
	}
	return n
}

// replay runs the lab probe once per catalogue configuration, on the first
// fresh query of that configuration in the stream, workers at a time. Where
// the pass answered that query, the probe's trace hash and blackhole
// window must match the service's.
func (w *whatifBench) replay(pr *probe, stream []streamQuery, p *pass) {
	served := map[string]string{}
	for i, a := range p.answers {
		if a.err == nil {
			served[p.items[i].key()] = reportDigest(a.resp.Report)
		}
	}
	seen := map[whatifConfig]bool{}
	var picks []streamQuery
	for _, q := range stream {
		c := whatifConfig{q.Query.Scheme, q.Query.Ports, q.Query.Control}
		if q.Repeat < 0 && !seen[c] {
			seen[c] = true
			picks = append(picks, q)
		}
	}
	forEach(w.workers, len(picks), func(i int) {
		q := picks[i]
		w.tally.add(1, 0)
		hash, worst, err := pr.replayWhatIf(q)
		if err != nil {
			w.tally.fail("probe %s: %v", q.key(), err)
			return
		}
		got := hash + "/" + strconv.FormatInt(worst, 10)
		if want := served[q.key()]; want != "" && want != got {
			w.tally.fail("probe %s: replay %s, service answered %s", q.key(), got, want)
		}
	})
}
