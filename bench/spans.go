package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call at a layer boundary. Trace is the slot the call
// served; Parent indexes the enclosing span (-1 for a slot's root).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. Every
// method is a no-op on a nil log, so untraced runs record nothing.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span and returns its index.
func (l *spanLog) add(name string, trace, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name, trace, parent, start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()})
	return len(l.spans) - 1
}

// open records a span whose end a later call to end sets.
func (l *spanLog) open(name string, trace, parent int, start time.Time) int {
	return l.add(name, trace, parent, start, start)
}

func (l *spanLog) end(id int, at time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = at.Sub(l.origin).Nanoseconds()
}

// summarize writes one line per span name: count, total, self time (the
// duration its child spans do not cover) and median duration.
func (l *spanLog) summarize(b *strings.Builder, workload string) {
	if l == nil {
		return
	}
	childNS := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		total, self int64
		ms          []float64
	}
	by := map[string]*agg{}
	for i, s := range l.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.total += d
		a.self += d - childNS[i]
		a.ms = append(a.ms, float64(d)/1e6)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(b, "%s span %s count=%d total_ms=%.3f self_ms=%.3f p50_ms=%.4f\n",
			workload, n, len(a.ms), float64(a.total)/1e6, float64(a.self)/1e6, quantile(a.ms, 0.5))
	}
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if l == nil {
		return fmt.Errorf("no spans recorded (spans need -trace 1)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
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
