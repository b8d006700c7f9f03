// Package obsflag shares the -obs flag and its metric-dump helper across
// the powerfail commands, so cmd/powerfail and cmd/sweep expose the
// observability layer with identical flags and output.
package obsflag

import (
	"flag"
	"fmt"
	"io"

	"powerfail"
	"powerfail/internal/obs"
)

// Register installs the shared -obs flag on the default flag set and
// returns its value. Call before flag.Parse.
func Register() *bool {
	return flag.Bool("obs", false, "enable the observability layer (sim-time metrics summary)")
}

// Configure returns the observability switch to attach to Options.Obs:
// non-nil (metrics and tracing on) when on, nil (observability off,
// byte-identical legacy output) otherwise. The returned pointer may be
// shared across items — experiments only read it.
func Configure(on bool) *powerfail.ObsConfig {
	if !on {
		return nil
	}
	cfg := powerfail.DefaultObsConfig()
	return &cfg
}

// Dump writes one summary as the deterministic text metric dump under a
// per-experiment header. A nil summary writes nothing, so callers can
// pass Report.Obs straight through.
func Dump(w io.Writer, name string, s *obs.Summary) error {
	if s == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# obs %s\n", name); err != nil {
		return err
	}
	return s.Dump(w)
}
