// Package obs is the deterministic observability layer threaded through
// the simulation stack: a sim-time metrics registry (counters, gauges,
// log-bucketed latency histograms), a bounded ring buffer of typed trace
// events, and exporters (a sorted text and JSON summary, OpenMetrics
// exposition, and Chrome trace-event JSON viewable in Perfetto).
//
// Two properties are load-bearing:
//
//   - Zero overhead when disabled. Every handle (Counter, Gauge,
//     Histogram) is nil-safe: methods on a nil receiver return
//     immediately, and a zero-value Scope hands out nil handles. Code can
//     therefore instrument unconditionally; with observability off the
//     instrumented path costs one nil check.
//
//   - Determinism. All metric and trace values are keyed to simulated
//     time and per-item state only — never wall-clock time, map
//     iteration order, or goroutine interleaving — so two runs of the
//     same seed produce byte-identical dumps at any campaign
//     parallelism. Wall-clock telemetry (events/s, per-item duration)
//     lives outside this package's dumps, in campaign-level fields that
//     are excluded from serialized reports.
package obs

import "powerfail/internal/sim"

// DefaultTraceCap bounds the trace ring buffer. Old events are dropped
// FIFO past the cap (deterministically: the drop point depends only on
// the event sequence, not on timing).
const DefaultTraceCap = 1 << 16

// Config is the observability switch: a non-nil *Config turns on the
// metrics registry and the trace ring together, and nil turns both off.
// It has no fields; reports produced with observability off are
// byte-identical to reports from builds that predate this package.
type Config struct{}

// Set is one run's observability state: a metrics registry and a trace
// ring of DefaultTraceCap events. A nil *Set is the disabled state and
// is safe to use everywhere.
type Set struct {
	reg *Registry
	tr  *Trace
}

// NewSet builds a Set with metrics and tracing on.
func NewSet() *Set {
	return &Set{reg: NewRegistry(), tr: NewTrace(DefaultTraceCap)}
}

// Scope returns a handle-factory bound to one component name. Nil-safe:
// a nil Set yields a zero Scope whose handles are all nil.
func (s *Set) Scope(component string) Scope {
	if s == nil {
		return Scope{}
	}
	return Scope{set: s, comp: component}
}

// TraceEvents returns the ring contents in record order. Nil-safe.
func (s *Set) TraceEvents() []Event {
	if s == nil {
		return nil
	}
	return s.tr.Events()
}

// Summary snapshots the registry (sorted, deterministic) together with
// trace accounting. Nil-safe; returns nil when the Set is nil.
func (s *Set) Summary() *Summary {
	if s == nil {
		return nil
	}
	sum := &Summary{TraceEvents: s.tr.Len(), TraceDropped: s.tr.Dropped()}
	s.reg.fill(sum)
	return sum
}

// Scope is a Set bound to one component name; metric names it hands out
// are "component/metric". The zero Scope is disabled: it returns nil
// handles and drops events.
type Scope struct {
	set  *Set
	comp string
}

// Enabled reports whether the scope is bound to a live Set. Guard
// expensive event construction (fmt.Sprintf state names) behind this.
func (sc Scope) Enabled() bool { return sc.set != nil }

// Component returns the component name ("" for the zero Scope).
func (sc Scope) Component() string { return sc.comp }

// Sub returns a child scope named "component/name".
func (sc Scope) Sub(name string) Scope {
	if sc.set == nil {
		return Scope{}
	}
	return Scope{set: sc.set, comp: sc.comp + "/" + name}
}

// Counter returns the named counter, or nil for the zero Scope.
func (sc Scope) Counter(name string) *Counter {
	if sc.set == nil {
		return nil
	}
	return sc.set.reg.Counter(sc.comp + "/" + name)
}

// Gauge returns the named gauge, or nil for the zero Scope.
func (sc Scope) Gauge(name string) *Gauge {
	if sc.set == nil {
		return nil
	}
	return sc.set.reg.Gauge(sc.comp + "/" + name)
}

// Histogram returns the named histogram, or nil for the zero Scope.
func (sc Scope) Histogram(name string) *Histogram {
	if sc.set == nil {
		return nil
	}
	return sc.set.reg.Histogram(sc.comp + "/" + name)
}

// Instant records a zero-duration event at sim time at.
func (sc Scope) Instant(at sim.Time, kind Kind, name string, value int64) {
	if sc.set == nil {
		return
	}
	sc.set.tr.Record(Event{At: at, Kind: kind, Comp: sc.comp, Name: name, Value: value})
}

// Span records an event covering [at, at+dur).
func (sc Scope) Span(at sim.Time, dur sim.Duration, kind Kind, name string, value int64) {
	if sc.set == nil {
		return
	}
	sc.set.tr.Record(Event{At: at, Dur: dur, Kind: kind, Comp: sc.comp, Name: name, Value: value})
}
