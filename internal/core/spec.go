package core

import (
	"fmt"

	"powerfail/internal/sim"
	"powerfail/internal/trace"
	"powerfail/internal/workload"
)

// ExperimentSpec describes one fault-injection experiment.
type ExperimentSpec struct {
	Name string `json:"name"`
	// Source selects the runner's IO source explicitly. The zero value
	// (SourceAuto) infers it: trace replay when Trace is set, the
	// transaction engine when the platform's Options.Txn is set, the
	// synthetic Workload generator otherwise.
	Source   SourceKind    `json:"source,omitempty"`
	Workload workload.Spec `json:"workload"`
	// Trace configures trace replay (required for SourceTrace; selects
	// SourceTrace under SourceAuto). The Workload is ignored when set.
	Trace *trace.Config `json:"trace,omitempty"`
	// Faults is the number of power faults to inject.
	Faults int `json:"faults"`
	// RequestsPerFault spaces fault injections by completed workload
	// requests (jittered by +/-25%).
	RequestsPerFault int `json:"requests_per_fault"`
	// WindowMode pauses the workload after a chosen request completes and
	// injects the fault PostACKDelay later — the Section IV-A experiment
	// measuring data loss after request completion.
	WindowMode   bool         `json:"window_mode,omitempty"`
	PostACKDelay sim.Duration `json:"post_ack_delay_ns,omitempty"`
	// MaxSimTime aborts a runaway experiment (default 6 simulated hours).
	MaxSimTime sim.Duration `json:"max_sim_time_ns,omitempty"`
}

// Validate checks the specification for a platform without an application
// layer (NewRunner re-resolves the source against the platform's actual
// options and validates again).
func (s ExperimentSpec) Validate() error { return s.validate(s.sourceKind(false)) }

// sourceKind resolves the spec's effective source; txn reports whether
// the platform has the transaction engine configured.
func (s ExperimentSpec) sourceKind(txn bool) SourceKind {
	if s.Source != SourceAuto {
		return s.Source
	}
	if s.Trace != nil {
		return SourceTrace
	}
	if txn {
		return SourceTxn
	}
	return SourceWorkload
}

// validate checks the specification for the resolved source kind — the
// one spec checker every entry point shares.
func (s ExperimentSpec) validate(kind SourceKind) error {
	switch kind {
	case SourceWorkload:
		if err := s.Workload.Validate(); err != nil {
			return err
		}
	case SourceTxn:
		// The engine generates its own IO and is inherently closed-loop;
		// the Workload is ignored except that open-loop pacing is
		// rejected rather than silently dropped.
		if s.Workload.IOPS > 0 {
			return fmt.Errorf("core: the txn source is closed-loop; Workload.IOPS must be 0")
		}
	case SourceTrace:
		if s.Trace == nil {
			return fmt.Errorf("core: source %q needs a Trace config", kind)
		}
		if s.Workload.IOPS > 0 {
			// The replayer paces itself (Trace.Mode); a spec'd IOPS would
			// be silently ignored and then misreported as RequestedIOPS.
			return fmt.Errorf("core: trace replay paces itself; Workload.IOPS must be 0")
		}
		if err := s.Trace.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: cannot validate source kind %v", kind)
	}
	if s.Faults <= 0 {
		return fmt.Errorf("core: Faults must be positive, got %d", s.Faults)
	}
	if s.RequestsPerFault <= 0 {
		return fmt.Errorf("core: RequestsPerFault must be positive, got %d", s.RequestsPerFault)
	}
	if s.WindowMode && s.PostACKDelay < 0 {
		return fmt.Errorf("core: negative PostACKDelay")
	}
	return nil
}
