package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans nest per goroutine: a
// span opened while another is open on the same goroutine is its child,
// and a layer's self time is its duration minus its children's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 = top level on its goroutine
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // e.g. the client's architecture
	Round  int    `json:"round"`         // round in progress when the span opened (0 = setup)
	Start  int64  `json:"start_ns"`      // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
	self   int64
}

// tracer keeps every span of a run in memory; write dumps them at the end.
// A nil *tracer is the untraced run: begin returns a no-op and records
// nothing.
type tracer struct {
	epoch time.Time
	round func() int

	mu    sync.Mutex
	spans []span
	open  map[int64][]int // goroutine id → stack of open span ids
}

func newTracer(round func() int) *tracer {
	return &tracer{epoch: time.Now(), round: round, open: make(map[int64][]int)}
}

func noop() {}

// begin opens a span and returns the function that closes it. The closing
// function must run on the goroutine that opened the span.
func (t *tracer) begin(name, tag string) func() {
	if t == nil {
		return noop
	}
	g := goid()
	round := t.round()
	t.mu.Lock()
	id := len(t.spans)
	parent := -1
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.open[g] = append(t.open[g], id)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag, Round: round,
		Start: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	return func() {
		end := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id].End = end
		st := t.open[g]
		t.open[g] = st[:len(st)-1]
		t.mu.Unlock()
	}
}

// replay records a synthetic span for work timed outside the round loop,
// attributed to no round.
func (t *tracer) replay(name, tag string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	start := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: name, Tag: tag, Round: -1,
		Start: start - int64(d), End: start, Replay: true})
	t.mu.Unlock()
}

// finish computes every span's self time. Call once, after the run.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		s.self += s.End - s.Start
		if s.Parent >= 0 {
			t.spans[s.Parent].self -= s.End - s.Start
		}
	}
	return t.spans
}

// write dumps the spans as JSON lines to path, preceded by a header line
// carrying the run record.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
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

// goid parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:"). Go exposes no cheaper goroutine identity;
// the traced run pays about a microsecond per span for it, which
// trace.overhead_frac reports.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
