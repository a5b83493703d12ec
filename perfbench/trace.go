package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a public function of the
// program. Spans of one unit of work (a batch, a query, a probed lab)
// share a trace name; Parent links a call to the span that caused it.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
}

func (s span) ms() float64 { return (s.EndUs - s.StartUs) / 1000 }

// tracer keeps spans in memory until the benchmark writes them out. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span id, for a parent whose children finish first.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id (0 = allocate one).
func (t *tracer) record(id, parent int64, trace, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartUs: float64(start.Sub(t.origin)) / float64(time.Microsecond),
		EndUs:   float64(end.Sub(t.origin)) / float64(time.Microsecond),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Buckets of CPU samples with no frame in a program module.
const (
	bucketBench   = "bench"   // the benchmark's own code
	bucketRuntime = "runtime" // GC, scheduler, stdlib outside any module
)

const modulePrefix = "repro/internal/"

// cpuShares charges each sample of a gzipped pprof CPU profile to the
// innermost repro/internal/<module> frame on its stack. Samples with no
// such frame go to the benchmark when one of its frames is on the stack,
// else to the runtime bucket. It returns the share of samples per bucket
// and the sample count.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		counts[p.bucket(s.locations)] += n
		total += n
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, 0, nil
	}
	for k, v := range counts {
		shares[k] = float64(v) / float64(total)
	}
	return shares, int(total), nil
}

// bucket walks a stack from the leaf, inlined frames first.
func (p *profile) bucket(locations []uint64) string {
	bench := false
	for _, id := range locations {
		for _, fn := range p.locations[id] {
			name := p.strings[p.functions[fn]]
			if rest, ok := strings.CutPrefix(name, modulePrefix); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
			if strings.HasPrefix(name, "main.") {
				bench = true
			}
		}
	}
	if bench {
		return bucketBench
	}
	return bucketRuntime
}

// profile is the part of a pprof profile.proto that cpuShares needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes. Field
// numbers follow github.com/google/pprof/proto/profile.proto.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locations, err = appendPacked(s.locations, w, v, b)
				case 2:
					var vals []uint64
					vals, err = appendPacked(nil, w, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, fns := range p.locations {
		for _, fn := range fns {
			if idx, ok := p.functions[fn]; !ok || idx < 0 || idx >= int64(len(p.strings)) {
				return nil, errors.New("profile: location references an unknown function")
			}
		}
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: the varint
// value for wire type 0, the payload for wire type 2. Fixed-width fields
// are skipped; profile.proto uses none that cpuShares reads.
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (wire 0) or packed (wire 2).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
