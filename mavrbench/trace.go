package main

import (
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into the
// program's packages. A span is named after the layer and call
// ("board.run"); nested spans charge their time to the enclosing
// span's children, so each span also has a self time. Spans are
// aggregated in memory per name and written out once, at the end of
// the run. A nil *tracer records nothing. One tracer serves one
// goroutine; concurrent callers each own one and merge at the end.
type tracer struct {
	stack []frame
	agg   map[string]*spanAgg
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
}

type spanAgg struct {
	Count int           `json:"count"`
	Total time.Duration `json:"-"`
	Self  time.Duration `json:"-"`
}

func newTracer() *tracer { return &tracer{agg: map[string]*spanAgg{}} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{name: name, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	a := t.agg[f.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[f.name] = a
	}
	a.Count++
	a.Total += d
	a.Self += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// merge folds another goroutine's closed spans into t.
func (t *tracer) merge(o *tracer) {
	for name, a := range o.agg {
		b := t.agg[name]
		if b == nil {
			b = &spanAgg{}
			t.agg[name] = b
		}
		b.Count += a.Count
		b.Total += a.Total
		b.Self += a.Self
	}
}

func (t *tracer) total(name string) time.Duration {
	if a := t.agg[name]; a != nil {
		return a.Total
	}
	return 0
}

// meanMS is the mean duration of one call in milliseconds (0 when the
// call was never made).
func (t *tracer) meanMS(name string) float64 {
	a := t.agg[name]
	if a == nil || a.Count == 0 {
		return 0
	}
	return ms(a.Total) / float64(a.Count)
}

// spanRow is one line of the written-out span table.
type spanRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) table() []spanRow {
	rows := make([]spanRow, 0, len(t.agg))
	for name, a := range t.agg {
		rows = append(rows, spanRow{Name: name, Count: a.Count, TotalMS: ms(a.Total), SelfMS: ms(a.Self)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
