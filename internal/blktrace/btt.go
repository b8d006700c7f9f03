package blktrace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"powerfail/internal/addr"
	"powerfail/internal/sim"
)

// IO is the btt-style per-IO assembly of one request's events: queueing,
// splitting, per-sub-request dispatch and completion. The paper's modified
// btt extracts exactly this view so that the Analyzer can tell complete
// requests (every sub-request reached C) from incomplete ones.
type IO struct {
	Req     uint64
	Op      OpKind
	LPN     addr.LPN
	Pages   int
	QueueAt sim.Time
	// Subs counts block-layer sub-requests; SubsDone of them completed and
	// SubsErrored failed.
	Subs          int
	SubsDone      int
	SubsErrored   int
	FirstDispatch sim.Time
	LastComplete  sim.Time
	TimedOut      bool
	Rejected      bool
	haveDispatch  bool
}

// Complete reports whether the request fully completed: it was issued, all
// sub-requests reached the C state, none errored, and it did not time out.
// This is the paper's "completed" flag.
func (io *IO) Complete() bool {
	return !io.Rejected && !io.TimedOut && io.Subs > 0 &&
		io.SubsDone == io.Subs && io.SubsErrored == 0
}

// Q2C returns the queue-to-complete latency, valid only for complete IOs.
func (io *IO) Q2C() sim.Duration { return io.LastComplete.Sub(io.QueueAt) }

// Assemble folds an event stream into per-IO records ordered by queue time.
func Assemble(events []Event) []*IO {
	byReq := make(map[uint64]*IO)
	var order []uint64
	get := func(e Event) *IO {
		io, ok := byReq[e.Req]
		if !ok {
			io = &IO{Req: e.Req, Op: e.Op, LPN: e.LPN, Pages: e.Pages, QueueAt: e.At}
			byReq[e.Req] = io
			order = append(order, e.Req)
		}
		return io
	}
	for _, e := range events {
		io := get(e)
		switch e.Act {
		case ActQueue:
			io.QueueAt = e.At
			io.Op = e.Op
			io.LPN = e.LPN
			io.Pages = e.Pages
		case ActSplit:
			io.Subs++
		case ActDispatch:
			if !io.haveDispatch || e.At < io.FirstDispatch {
				io.FirstDispatch = e.At
				io.haveDispatch = true
			}
		case ActComplete:
			io.SubsDone++
			if e.At > io.LastComplete {
				io.LastComplete = e.At
			}
		case ActError:
			io.SubsErrored++
		case ActTimeout:
			io.TimedOut = true
		case ActReject:
			io.Rejected = true
		}
	}
	out := make([]*IO, 0, len(order))
	for _, id := range order {
		out = append(out, byReq[id])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].QueueAt < out[j].QueueAt })
	return out
}

// Summary aggregates per-IO statistics over a window.
type Summary struct {
	IOs       int
	Completed int
	Errored   int
	TimedOut  int
	Rejected  int
	Reads     int
	Writes    int
	AvgQ2C    sim.Duration
	MaxQ2C    sim.Duration
}

// Summarize computes aggregate statistics for a set of IOs.
func Summarize(ios []*IO) Summary {
	var s Summary
	var total sim.Duration
	for _, io := range ios {
		s.IOs++
		switch io.Op {
		case OpRead:
			s.Reads++
		case OpWrite:
			s.Writes++
		}
		switch {
		case io.Rejected:
			s.Rejected++
		case io.TimedOut:
			s.TimedOut++
		case io.Complete():
			s.Completed++
			q2c := io.Q2C()
			total += q2c
			if q2c > s.MaxQ2C {
				s.MaxQ2C = q2c
			}
		case io.SubsErrored > 0:
			s.Errored++
		}
	}
	if s.Completed > 0 {
		s.AvgQ2C = total / sim.Duration(s.Completed)
	}
	return s
}

// Latency summarises the Q2C distribution of completed IOs, btt-style.
type Latency struct {
	N   int
	Min sim.Duration
	P50 sim.Duration
	P90 sim.Duration
	P99 sim.Duration
	Max sim.Duration
}

// Latencies computes Q2C percentiles over the completed IOs in ios.
func Latencies(ios []*IO) Latency {
	var vals []sim.Duration
	for _, io := range ios {
		if io.Complete() {
			vals = append(vals, io.Q2C())
		}
	}
	if len(vals) == 0 {
		return Latency{}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	pick := func(q float64) sim.Duration {
		i := int(q * float64(len(vals)-1))
		return vals[i]
	}
	return Latency{
		N:   len(vals),
		Min: vals[0],
		P50: pick(0.50),
		P90: pick(0.90),
		P99: pick(0.99),
		Max: vals[len(vals)-1],
	}
}

// DumpPerIO writes IOs in the modified btt --per-io-dump text format:
// one header line per request followed by indented timing fields.
func DumpPerIO(w io.Writer, ios []*IO) error {
	for _, io := range ios {
		state := "incomplete"
		switch {
		case io.Rejected:
			state = "rejected"
		case io.TimedOut:
			state = "timeout"
		case io.Complete():
			state = "complete"
		}
		_, err := fmt.Fprintf(w, "io req=%d op=%c lpn=%d pages=%d subs=%d done=%d err=%d state=%s\n"+
			"  q=%.9f d=%.9f c=%.9f\n",
			io.Req, io.Op, io.LPN, io.Pages, io.Subs, io.SubsDone, io.SubsErrored, state,
			io.QueueAt.Seconds(), io.FirstDispatch.Seconds(), io.LastComplete.Seconds())
		if err != nil {
			return err
		}
	}
	return nil
}

// ParsePerIO reads the DumpPerIO format back into per-IO records; the
// round trip is exercised by cmd/blkreport and tests.
func ParsePerIO(r io.Reader) ([]*IO, error) {
	sc := bufio.NewScanner(r)
	var out []*IO
	var cur *IO
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 {
			continue
		}
		if text[0] != ' ' {
			var op, state string
			io := &IO{}
			_, err := fmt.Sscanf(text, "io req=%d op=%s lpn=%d pages=%d subs=%d done=%d err=%d state=%s",
				&io.Req, &op, (*int64)(&io.LPN), &io.Pages, &io.Subs, &io.SubsDone, &io.SubsErrored, &state)
			if err != nil {
				return nil, fmt.Errorf("blktrace: parse line %d: %w", line, err)
			}
			if len(op) != 1 {
				return nil, fmt.Errorf("blktrace: parse line %d: bad op %q", line, op)
			}
			io.Op = OpKind(op[0])
			switch state {
			case "timeout":
				io.TimedOut = true
			case "rejected":
				io.Rejected = true
			}
			out = append(out, io)
			cur = io
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("blktrace: parse line %d: timing before header", line)
		}
		var q, d, c float64
		if _, err := fmt.Sscanf(text, "  q=%f d=%f c=%f", &q, &d, &c); err != nil {
			return nil, fmt.Errorf("blktrace: parse line %d: %w", line, err)
		}
		cur.QueueAt, cur.FirstDispatch, cur.LastComplete = nsOf(q), nsOf(d), nsOf(c)
		cur.haveDispatch = cur.FirstDispatch != 0
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// nsOf converts a dumped float-seconds timestamp back to the simulated
// nanosecond it was printed from. It rounds: truncating would turn the
// printed 0.000000015 (15 ns, read as 14.999999999999998e-9 s) into 14.
func nsOf(secs float64) sim.Time { return sim.Time(math.Round(secs * float64(sim.Second))) }
