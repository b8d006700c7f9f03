package blockdev

import (
	"cmp"
	"slices"

	"powerfail/internal/obs"
	"powerfail/internal/sim"
)

// queueObs holds one Queue's observability handles. The zero value is
// the disabled state: every handle is nil and nil handles no-op, so the
// hot path pays one nil check when observability is off.
type queueObs struct {
	sc        obs.Scope
	submitted *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	errored   *obs.Counter
	timedOut  *obs.Counter
	splits    *obs.Counter
	inflight  *obs.Gauge
	q2cRead   *obs.Histogram
	q2cWrite  *obs.Histogram
	q2cFlush  *obs.Histogram
	q2cCtrl   *obs.Histogram
	lastDepth int
	sampled   bool
}

// Observe attaches the queue to an observability scope. Handles are
// resolved once here; several queues observing into the same scope (the
// fleet's member queues) share metrics by name. A disabled scope is a
// no-op.
func (q *Queue) Observe(sc obs.Scope) {
	if !sc.Enabled() {
		return
	}
	q.obs = queueObs{
		sc:        sc,
		submitted: sc.Counter("submitted"),
		rejected:  sc.Counter("rejected"),
		completed: sc.Counter("completed"),
		errored:   sc.Counter("errored"),
		timedOut:  sc.Counter("timed_out"),
		splits:    sc.Counter("splits"),
		inflight:  sc.Gauge("inflight"),
		q2cRead:   sc.Histogram("q2c_read_ns"),
		q2cWrite:  sc.Histogram("q2c_write_ns"),
		q2cFlush:  sc.Histogram("q2c_flush_ns"),
		q2cCtrl:   sc.Histogram("q2c_control_ns"),
	}
}

// obsSampleDepth records the device-inflight depth when it changed since
// the last sample, as a gauge point and a trace event.
func (q *Queue) obsSampleDepth() {
	o := &q.obs
	if o.inflight == nil {
		return
	}
	if o.sampled && q.inflight == o.lastDepth {
		return
	}
	o.sampled = true
	o.lastDepth = q.inflight
	o.inflight.Set(int64(q.inflight))
	o.sc.Instant(q.k.Now(), obs.KindQueueDepth, "inflight", int64(q.inflight))
}

// obsDone records the queue-to-complete latency of a finished request.
// Control (verification) traffic gets its own histogram so workload
// latency quantiles stay clean.
func (q *Queue) obsDone(r *Request) {
	o := &q.obs
	if o.completed == nil {
		return
	}
	if r.Err != nil {
		o.errored.Inc()
		return
	}
	o.completed.Inc()
	d := int64(q.k.Now().Sub(r.Queued))
	switch {
	case r.Control:
		o.q2cCtrl.Observe(d)
	case r.Op == OpRead:
		o.q2cRead.Observe(d)
	case r.Op == OpWrite:
		o.q2cWrite.Observe(d)
	default:
		o.q2cFlush.Observe(d)
	}
}

// ioSpanNames are the block-IO span names, blktrace's one-letter op codes.
var ioSpanNames = [...]string{OpRead: "R", OpWrite: "W", OpFlush: "F"}

// ioTrace buffers one queue-to-complete span per completed request while
// an enabled scope is attached. Spans are buffered rather than recorded at
// completion so that a flush can hand them to the trace ring in request
// order, the order btt lists IOs in.
type ioTrace struct {
	sc    obs.Scope
	spans []obs.Event
}

// add buffers r's span if r completed: every sub-request finished with
// no error (rejected and timed-out requests never reach here).
func (t *ioTrace) add(r *Request, now sim.Time) {
	if !t.sc.Enabled() || r.Err != nil {
		return
	}
	t.spans = append(t.spans, obs.Event{At: r.Queued, Dur: now.Sub(r.Queued), Name: ioSpanNames[r.Op], Value: int64(r.ID)})
}

// TraceIOs attaches the block-IO trace scope: while sc is enabled, every
// completed request buffers a KindBlockIO span {At: Queued, Dur: Q2C,
// Name: "R"|"W"|"F", Value: ID} until FlushIOs. A disabled scope leaves
// the queue untraced.
func (q *Queue) TraceIOs(sc obs.Scope) { q.ios.sc = sc }

// FlushIOs records the buffered spans into the trace scope in request-ID
// order and empties the buffer.
func (q *Queue) FlushIOs() {
	t := &q.ios
	slices.SortFunc(t.spans, func(a, b obs.Event) int { return cmp.Compare(a.Value, b.Value) })
	for _, e := range t.spans {
		t.sc.Span(e.At, e.Dur, obs.KindBlockIO, e.Name, e.Value)
	}
	t.spans = t.spans[:0]
}
