package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanRec is one span of the traced run, recorded by the benchmark around
// its own calls into a layer. Times are nanoseconds: V* on the virtual
// clock of the seed's cluster (-1 on tcp-commit, which has none), W* on
// the wall clock since the run began. Spans of one operation share Trace;
// Parent is 0 for the operation's root span.
type spanRec struct {
	Trace    uint64 `json:"trace"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	Key      string `json:"key,omitempty"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	VStart   int64  `json:"v_start_ns"`
	VEnd     int64  `json:"v_end_ns"`
	WStart   int64  `json:"w_start_ns"`
	WEnd     int64  `json:"w_end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil *spanLog is the untraced run: every method is a no-op, so workload
// code calls it unconditionally.
type spanLog struct {
	mu       sync.Mutex
	began    time.Time
	workload string
	seed     int64
	vnow     func() time.Time // nil on the wall-clock workload
	next     uint64
	recs     []spanRec
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{began: time.Now(), workload: workload}
}

// bind points the log at the cluster of the seed about to run.
func (l *spanLog) bind(seed int64, vnow func() time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seed, l.vnow = seed, vnow
	l.mu.Unlock()
}

func (l *spanLog) count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// openSpan is a span in progress.
type openSpan struct {
	l   *spanLog
	rec spanRec
}

func (l *spanLog) virtualNow() int64 {
	if l.vnow == nil {
		return -1
	}
	return l.vnow().UnixNano()
}

// start opens a span; parent nil starts a new operation (a new trace).
func (l *spanLog) start(name, key string, parent *openSpan) *openSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	s := &openSpan{l: l, rec: spanRec{
		ID: l.next, Name: name, Key: key, Workload: l.workload, Seed: l.seed,
		VStart: l.virtualNow(), WStart: int64(time.Since(l.began)),
	}}
	if parent != nil {
		s.rec.Trace, s.rec.Parent = parent.rec.Trace, parent.rec.ID
	} else {
		s.rec.Trace = s.rec.ID
	}
	return s
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	l := s.l
	l.mu.Lock()
	s.rec.VEnd, s.rec.WEnd = l.virtualNow(), int64(time.Since(l.began))
	l.recs = append(l.recs, s.rec)
	l.mu.Unlock()
}

// closed records a span whose start lies in the past: the gateway reports
// a commit only at its ack, with the enqueue-to-ack latency, so the span
// is rebuilt from the ack instant. wallStart is the wall instant noted
// when the batch's first line was enqueued (zero if unknown).
func (l *spanLog) closed(name, key string, virtualDur time.Duration, wallStart time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	vEnd, wEnd := l.virtualNow(), int64(time.Since(l.began))
	wStart := wEnd
	if !wallStart.IsZero() {
		wStart = int64(wallStart.Sub(l.began))
	}
	l.recs = append(l.recs, spanRec{
		Trace: l.next, ID: l.next, Name: name, Key: key, Workload: l.workload, Seed: l.seed,
		VStart: vEnd - int64(virtualDur), VEnd: vEnd, WStart: wStart, WEnd: wEnd,
	})
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.recs {
		if err := enc.Encode(&l.recs[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
