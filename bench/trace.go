package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the tracer
// started. Shadow marks a call made only to time a layer in isolation
// (the same work also runs inside a sibling span), so it is left out
// when a parent's children are summed.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // index of the generated operation
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; writeTrace puts them on disk when the
// run ends. coin decides which operations of a connection are traced.
type tracer struct {
	t0    time.Time
	spans []span
	coin  *rand.Rand
}

func newTracer(conn int) *tracer {
	return &tracer{t0: time.Now(), coin: rand.New(rand.NewSource(int64(conn)))}
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func (t *tracer) begin(parent, op int, name string, shadow bool) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layerOf(name),
		Shadow: shadow, Start: time.Since(t.t0).Nanoseconds(),
	})
	return id
}

// record adds a span whose start and end were stamped by the caller.
func (t *tracer) record(parent, op int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layerOf(name),
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) int64 {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	return t.spans[id].dur()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its non-shadow child spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent < 0 || s.Shadow {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// byName groups span durations (µs) by span name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
	}
	return out
}

// writeTrace puts the replay's spans and each traced connection's spans
// in <dir>/trace_<workload>.json. Span ids are per list.
func writeTrace(dir, workload string, replay *tracer, conns []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	out := struct {
		Workload string   `json:"workload"`
		Replay   []span   `json:"replay_spans"`
		Socket   [][]span `json:"socket_spans_per_connection"`
	}{Workload: workload, Replay: replay.spans}
	for _, c := range conns {
		out.Socket = append(out.Socket, c.spans)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
