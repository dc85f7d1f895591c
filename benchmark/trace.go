package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made. Spans of one op share its Op
// identifier; Parent is the span that caused it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// recorder keeps the benchmark's own spans in memory until the run ends. A
// nil recorder records nothing, so untraced runs share the traced code path.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(parent, op int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeNDJSON writes one span per line.
func (r *recorder) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part its children cover.
// The benchmark's children never overlap each other (every op runs its calls
// one after another), so the covered part is the sum of their durations.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// checkSpanTree reports the first way the span tree is malformed: an unended
// span, a child outside its parent, a child of another op, or a negative
// self time.
func checkSpanTree(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d %s never ended", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Op != s.Op {
			return fmt.Errorf("span %d %s is in op %d, its parent in op %d", s.ID, s.Name, s.Op, p.Op)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d %s lies outside its parent %s", s.ID, s.Name, p.Name)
		}
	}
	for id, ns := range selfTimes(spans) {
		if ns < 0 {
			return fmt.Errorf("span %d %s has negative self time %d ns", id, byID[id].Name, ns)
		}
	}
	return nil
}

// ladderRow is one line of the "where the time goes" table: the summed self
// time of every ladder span of one name.
type ladderRow struct {
	Name   string
	Calls  int
	SelfMs float64
	Share  float64 // of the ladder's total
}

// ladderTable sums self times by name over the spans of the ladder op.
func ladderTable(spans []span, ladderOp int) []ladderRow {
	self := selfTimes(spans)
	byName := map[string]*ladderRow{}
	var total float64
	for _, s := range spans {
		if s.Op != ladderOp {
			continue
		}
		row := byName[s.Name]
		if row == nil {
			row = &ladderRow{Name: s.Name}
			byName[s.Name] = row
		}
		ms := float64(self[s.ID]) / 1e6
		row.Calls++
		row.SelfMs += ms
		total += ms
	}
	rows := make([]ladderRow, 0, len(byName))
	for _, row := range byName {
		if total > 0 {
			row.Share = row.SelfMs / total
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}
