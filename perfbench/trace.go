package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// replayed operation (a learn or a classification pass) share a run id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span's function belongs to: the text before the
// first dot of its name ("coverage.ScoreCandidates" → "coverage").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the benchmark writes them out. The
// replay calls it from one goroutine only, so it needs no locking.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newRun starts a fresh run id for the next replayed operation.
func (t *tracer) newRun() { t.run++ }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes the span with the given id.
func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	return total + curEnd - curStart
}

// spanTotals aggregates the spans by name: summed duration and call count.
type spanTotals struct {
	seconds map[string]float64
	calls   map[string]int
	// selfSeconds is the summed self time per layer.
	selfSeconds map[string]float64
	// rootSeconds is the summed duration of the root spans.
	rootSeconds float64
}

func (t *tracer) totals() spanTotals {
	tot := spanTotals{seconds: map[string]float64{}, calls: map[string]int{}, selfSeconds: map[string]float64{}}
	self := t.selfTimes()
	for i, s := range t.spans {
		tot.seconds[s.Name] += seconds(s.dur())
		tot.calls[s.Name]++
		tot.selfSeconds[s.layer()] += seconds(self[i])
		if s.Parent == 0 {
			tot.rootSeconds += seconds(s.dur())
		}
	}
	return tot
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// write stores the environment header and the spans as JSON in path,
// creating its directory.
func (t *tracer) write(path string, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create trace directory: %w", err)
	}
	data, err := json.Marshal(map[string]any{"env": env, "spans": t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
