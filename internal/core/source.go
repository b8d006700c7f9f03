package core

import (
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/sim"
	"powerfail/internal/trace"
	"powerfail/internal/txn"
	"powerfail/internal/workload"
)

// SourceKind selects the runner's IO source. The zero value infers the
// source from the rest of the configuration (trace replay when the spec
// carries a trace, the transaction engine when Options.Txn is set,
// the synthetic generator otherwise), which keeps every pre-existing
// Options/spec combination working unchanged.
type SourceKind int

// Source kinds.
const (
	SourceAuto SourceKind = iota
	SourceWorkload
	SourceTxn
	SourceTrace
)

// String implements fmt.Stringer.
func (k SourceKind) String() string {
	switch k {
	case SourceAuto:
		return "auto"
	case SourceWorkload:
		return "workload"
	case SourceTxn:
		return "txn"
	case SourceTrace:
		return "trace"
	default:
		return fmt.Sprintf("SourceKind(%d)", int(k))
	}
}

// MarshalJSON renders the kind by name.
func (k SourceKind) MarshalJSON() ([]byte, error) { return []byte(`"` + k.String() + `"`), nil }

// UnmarshalJSON parses a source-kind name, so marshaled specs (run
// archives, report JSON) decode back into typed values.
func (k *SourceKind) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"auto"`:
		*k = SourceAuto
	case `"workload"`:
		*k = SourceWorkload
	case `"txn"`:
		*k = SourceTxn
	case `"trace"`:
		*k = SourceTrace
	default:
		return fmt.Errorf("core: unknown source kind %s", b)
	}
	return nil
}

// SourceIO is one request an IO source wants on the wire. Flushes carry
// no pages or payload. The token field routes the completion back to the
// source's private state (e.g. the transaction the IO belongs to).
type SourceIO struct {
	Op    blockdev.Op
	LPN   addr.LPN
	Pages int
	Data  content.Data // write payload
	token any
}

// Source is the pluggable IO producer that drives an experiment. The
// runner owns exactly one: it pulls requests with Next, issues them
// through the host block layer, and reports host-visible completions with
// Done — the same closed loop for synthetic workloads, the transaction
// engine and trace replay, so any future source (erasure-coded
// applications, mixed fleets) plugs into the one issue path.
type Source interface {
	// Kind identifies the source in reports ("workload", "txn", "trace").
	Kind() string
	// OpenLoop reports whether the source paces its own arrivals; the
	// runner then schedules issues at NextArrival gaps instead of
	// refilling a closed loop on completions.
	OpenLoop() bool
	// NextArrival returns the gap before the next open-loop arrival
	// (unused in closed loop).
	NextArrival() sim.Duration
	// Next returns the next IO to issue, or ok=false when the source is
	// waiting on completions. A closed-loop source must always be
	// issuable at zero outstanding IOs, so the runner's loop never
	// stalls.
	Next() (SourceIO, bool)
	// Done reports the host-visible completion of an IO from Next.
	Done(io SourceIO, err error)
}

// RecoverySource is the optional recovery hook: a source that needs a
// post-fault read-back pass (after the analyzer's packet verification)
// implements it and the runner drives the reads through the same
// control-read retry policy as verification. The transaction engine's
// crash-consistency oracle is the canonical implementation.
type RecoverySource interface {
	Source
	// RecoveryReads returns the pages the source wants read back after
	// the device recovered. The source stops producing IOs until
	// FinishRecovery.
	RecoveryReads() []addr.LPN
	// Observe records the post-recovery content of one page (or its
	// error after retries).
	Observe(lpn addr.LPN, fp content.Fingerprint, err error)
	// FinishRecovery closes the pass: the source judges what it saw and
	// resumes producing IOs.
	FinishRecovery()
}

// reporter lets a source contribute its section to the final Report.
type reporter interface {
	addToReport(rep *Report)
}

// --- workload generator adapter ---

// workloadSource adapts workload.Generator: the paper's synthetic IO
// stream, closed loop or open loop at the spec's requested IOPS.
type workloadSource struct {
	gen *workload.Generator
}

func (s *workloadSource) Kind() string              { return "workload" }
func (s *workloadSource) OpenLoop() bool            { return s.gen.Spec().IOPS > 0 }
func (s *workloadSource) NextArrival() sim.Duration { return s.gen.NextArrival() }

func (s *workloadSource) Next() (SourceIO, bool) {
	item := s.gen.Next()
	io := SourceIO{LPN: item.LPN, Pages: item.Pages}
	if item.Op == workload.OpWrite {
		io.Op = blockdev.OpWrite
		io.Data = item.Data
	} else {
		io.Op = blockdev.OpRead
	}
	return io, true
}

func (s *workloadSource) Done(SourceIO, error) {}

// --- transaction engine adapter ---

// txnSource adapts txn.Engine and absorbs its recovery oracle: after each
// fault the runner reads the engine's scan set back through the adapter
// and the per-cycle verdicts — one row per recovery policy — accumulate
// for the report.
type txnSource struct {
	eng      *txn.Engine
	perFault []txn.CycleOutcome
}

func (s *txnSource) Kind() string              { return "txn" }
func (s *txnSource) OpenLoop() bool            { return false }
func (s *txnSource) NextArrival() sim.Duration { return 0 }

func (s *txnSource) Next() (SourceIO, bool) {
	io, ok := s.eng.Next()
	if !ok {
		return SourceIO{}, false
	}
	out := SourceIO{LPN: io.LPN, Pages: io.Pages(), token: io}
	if io.Kind == txn.IOFlush {
		out.Op = blockdev.OpFlush
	} else {
		out.Op = blockdev.OpWrite
		out.Data = io.Data
	}
	return out, true
}

func (s *txnSource) Done(io SourceIO, err error) { s.eng.Done(io.token.(txn.IO), err) }

func (s *txnSource) RecoveryReads() []addr.LPN { return s.eng.RecoveryReads() }

func (s *txnSource) Observe(lpn addr.LPN, fp content.Fingerprint, err error) {
	s.eng.Observe(lpn, fp, err)
}

func (s *txnSource) FinishRecovery() {
	s.perFault = append(s.perFault, s.eng.FinishRecovery())
}

func (s *txnSource) addToReport(rep *Report) {
	ts := s.eng.Stats()
	rep.TxnStats = &ts
	rep.TxnPolicies = make([]txn.Stats, txn.NumRecoveryPolicies)
	for p := range rep.TxnPolicies {
		rep.TxnPolicies[p] = s.eng.StatsFor(txn.RecoveryPolicy(p))
	}
	rep.TxnPerFault = append([]txn.CycleOutcome(nil), s.perFault...)
}

// --- trace replayer adapter ---

// traceSource adapts trace.Replayer: MSR-style block traces replayed with
// original arrival times (open loop) or as fast as possible (closed
// loop), scaled/clamped to the device's address space.
type traceSource struct {
	rep *trace.Replayer
}

func (s *traceSource) Kind() string              { return "trace" }
func (s *traceSource) OpenLoop() bool            { return s.rep.OpenLoop() }
func (s *traceSource) NextArrival() sim.Duration { return s.rep.NextArrival() }

func (s *traceSource) Next() (SourceIO, bool) {
	io := s.rep.Next()
	out := SourceIO{LPN: io.LPN, Pages: io.Pages}
	if io.Op == trace.OpWrite {
		out.Op = blockdev.OpWrite
		out.Data = io.Data
	} else {
		out.Op = blockdev.OpRead
	}
	return out, true
}

func (s *traceSource) Done(SourceIO, error) {}

func (s *traceSource) addToReport(rep *Report) {
	ts := s.rep.Stats()
	rep.TraceStats = &ts
}

// newSource builds the source kind selects on the platform. The spec has
// already been validated for kind.
func newSource(kind SourceKind, p *Platform, spec ExperimentSpec) (Source, error) {
	switch kind {
	case SourceWorkload:
		if cap := p.Dev.UserPages() << addr.PageShift; spec.Workload.WSSBytes > cap {
			return nil, fmt.Errorf("core: workload WSS %d GB exceeds the device's %d GB capacity",
				spec.Workload.WSSBytes>>30, cap>>30)
		}
		gen, err := workload.NewGenerator(spec.Workload, p.RNG.Fork("workload"))
		if err != nil {
			return nil, err
		}
		return &workloadSource{gen: gen}, nil
	case SourceTxn:
		if p.Opts.Txn == nil {
			return nil, fmt.Errorf("core: source %q needs Options.Txn configured", kind)
		}
		eng, err := txn.NewEngine(*p.Opts.Txn, p.K, p.RNG.Fork("txn"), p.Dev.UserPages())
		if err != nil {
			return nil, err
		}
		eng.Instrument(p.ObsScope("txn"))
		return &txnSource{eng: eng}, nil
	case SourceTrace:
		rep, err := trace.NewReplayer(*spec.Trace, p.Dev.UserPages(), p.RNG.Fork("trace"))
		if err != nil {
			return nil, err
		}
		return &traceSource{rep: rep}, nil
	default:
		return nil, fmt.Errorf("core: unknown source kind %d", int(kind))
	}
}
