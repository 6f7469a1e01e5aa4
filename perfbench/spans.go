package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work (an app's
// prepare and cells, one serve connection) share a trace ID; Parent is 0
// for a root. An aggregate span stands for many calls too short to record
// one by one (the i-cache's Fetch and PrefetchFill): its duration is
// their summed time and Count their number, placed at its parent's start.
type span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Trace     string `json:"trace"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Count     int64  `json:"count,omitempty"`
	Aggregate bool   `json:"aggregate,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span; the returned function closes it and returns its
// duration. A nil recorder records nothing but still times.
func (rc *recorder) begin(trace, name string, parent int64) (id int64, end func() time.Duration) {
	start := time.Now()
	if rc == nil {
		return 0, func() time.Duration { return time.Since(start) }
	}
	rc.mu.Lock()
	rc.next++
	id = rc.next
	rc.mu.Unlock()
	return id, func() time.Duration {
		stop := time.Now()
		rc.mu.Lock()
		rc.spans = append(rc.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
			StartNS: int64(start.Sub(rc.t0)), EndNS: int64(stop.Sub(rc.t0))})
		rc.mu.Unlock()
		return stop.Sub(start)
	}
}

// timed runs fn inside a span and returns the span's duration.
func (rc *recorder) timed(trace, name string, parent int64, fn func()) time.Duration {
	_, end := rc.begin(trace, name, parent)
	fn()
	return end()
}

// aggregate records count calls totalling d under parent.
func (rc *recorder) aggregate(trace, name string, parent int64, d time.Duration, count int64) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var start int64
	for i := len(rc.spans) - 1; i >= 0; i-- {
		if rc.spans[i].ID == parent {
			start = rc.spans[i].StartNS
			break
		}
	}
	rc.next++
	rc.spans = append(rc.spans, span{ID: rc.next, Parent: parent, Trace: trace, Name: name,
		StartNS: start, EndNS: start + int64(d), Count: count, Aggregate: true})
}

// layerOf is a span name's layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the time its
// children account for. A child span always runs inside its parent on the
// same goroutine, so the children's durations never overlap.
func (rc *recorder) selfTimes() map[string]time.Duration {
	childNS := map[int64]int64{}
	for _, s := range rc.spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]time.Duration{}
	for _, s := range rc.spans {
		self[layerOf(s.Name)] += time.Duration(s.EndNS - s.StartNS - childNS[s.ID])
	}
	return self
}

func (rc *recorder) printSelfTimes(w io.Writer) {
	self := rc.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "# self time per layer (%d spans)\n", len(rc.spans))
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-12s %10.3f s\n", l, self[l].Seconds())
	}
}

// writeFile writes the stamp and every span as JSON.
func (rc *recorder) writeFile(path string, st stamp) (string, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	data, err := json.Marshal(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, rc.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
