package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call.  Spans of one op share its op id; parent is the op
// id of the op span that caused this span (-1 on op spans themselves).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	op         int
	parent     int
}

// lane is the span list of one goroutine (a rank, a client, the driver).
// Only its owning goroutine appends, so recording takes no lock.
type lane struct {
	name  string
	spans []span
}

// tracer keeps every span in memory until the run ends; writeChrome then
// dumps them as Chrome trace-event JSON (chrome://tracing, Perfetto).
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	lanes  []*lane
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// newLane registers a lane; call it before the owning goroutine starts.
func (t *tracer) newLane(name string) *lane {
	l := &lane{name: name}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// newOp allocates an op id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextOp
	t.nextOp++
	return id
}

func (l *lane) add(name string, start, end time.Duration, op, parent int) {
	l.spans = append(l.spans, span{name: name, start: start, end: end, op: op, parent: parent})
}

// spanCount is the total number of spans recorded.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// chromeEvent is one trace-event record ("X" = complete event, "M" =
// metadata naming a thread).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  *float64       `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans to path as a Chrome trace-event JSON object.
// Call it only after every recording goroutine has finished.
func (t *tracer) writeChrome(path, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev) // Encode appends the newline
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	_, err = w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	if err == nil {
		err = emit(chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}})
	}
	for tid, l := range t.lanes {
		if err != nil {
			break
		}
		err = emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": l.name}})
		for _, s := range l.spans {
			if err != nil {
				break
			}
			dur := us(s.end - s.start)
			args := map[string]any{"op": s.op}
			if s.parent >= 0 {
				args["parent"] = s.parent
			}
			err = emit(chromeEvent{Name: s.name, Ph: "X", Pid: 1, Tid: tid, Ts: us(s.start), Dur: &dur, Args: args})
		}
	}
	if err == nil {
		_, err = w.WriteString("]}\n")
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
