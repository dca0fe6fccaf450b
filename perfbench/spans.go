package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system: a pass, a
// daemon start, an INGEST batch, a FLUSH, a QUERY, a kernel call.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanLog keeps every span of a traced run in memory; it is written out
// once, when the run ends. A nil *spanLog records nothing, so untraced
// runs pay one branch per call site.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent (0 for a root) and returns its id and
// a function that closes it.
func (l *spanLog) begin(parent int, name string) (int, func()) {
	if l == nil {
		return 0, func() {}
	}
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: time.Now()})
	l.mu.Unlock()
	return id, func() {
		end := time.Now()
		l.mu.Lock()
		l.spans[id-1].End = end
		l.mu.Unlock()
	}
}

// add records an already-timed span.
func (l *spanLog) add(parent int, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	l.mu.Unlock()
}

// write stores every span as JSON under dir.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(l.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// report prints per-name span counts, total time and self time: a span's
// duration minus its children's. Children of one parent run one after
// another, except the QUERYs beside an open-loop send's INGESTs, so self
// time is floored at zero rather than computed from the covered
// interval.
func (l *spanLog) report(w io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	childTime := make(map[int]time.Duration)
	for _, s := range l.spans {
		if s.Parent > 0 {
			childTime[s.Parent] += s.End.Sub(s.Start)
		}
	}
	byName := make(map[string]*agg)
	var names []string
	for _, s := range l.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.End.Sub(s.Start)
		a.n++
		a.total += d
		a.self += max(0, d-childTime[s.ID])
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "benchmark span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f\n", n, a.n, ms(a.total), ms(a.self))
	}
}
