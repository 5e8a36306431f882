package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the replay made into a layer. Spans nest: the
// replay is single-threaded, so a span's children are exactly the spans
// started while it was open, and they never overlap one another.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Req    int32  `json:"req"`    // replayed request index
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	req   int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under the innermost open one and returns its handle.
func (t *tracer) start(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: t.req})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span opened by start; spans close in LIFO order.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the durations of its direct children.
func (t *tracer) selfTimes() map[string]int64 {
	self := make(map[string]int64)
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
