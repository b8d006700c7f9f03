package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"powerfail/internal/sim"
	"powerfail/internal/trace"
	"powerfail/internal/workload"
)

// FuzzExperimentSpec feeds arbitrary bytes to the ExperimentSpec JSON
// decoder — the reader run archives and report JSON go through, which
// covers the SourceKind, Pattern, SeqMode and trace Config/Mode decoders.
// A decoded spec must validate without panicking, and re-encoding it
// must be a fixed point: encoding, decoding and encoding again gives the
// same bytes.
func FuzzExperimentSpec(f *testing.F) {
	writes := workload.Spec{Name: "w", WSSBytes: 1 << 30, MinSize: 4 << 10, MaxSize: 64 << 10, Pattern: workload.Random}
	seq := writes
	seq.ReadPct, seq.Sequence, seq.IOPS = 50, workload.RAW, 2000
	sequential := writes
	sequential.Pattern = workload.Sequential
	tr := &trace.Trace{Name: "msr-web", Records: make([]trace.Record, 3)}
	for _, s := range []ExperimentSpec{
		{Name: "auto", Workload: writes, Faults: 5, RequestsPerFault: 16},
		{Name: "workload", Source: SourceWorkload, Workload: seq, Faults: 5, RequestsPerFault: 16, MaxSimTime: sim.Minute},
		{Name: "txn", Source: SourceTxn, Faults: 3, RequestsPerFault: 8},
		{Name: "trace", Source: SourceTrace, Trace: &trace.Config{Trace: tr, Mode: trace.OpenLoop}, Faults: 4, RequestsPerFault: 12},
		{Name: "window", Workload: sequential, Faults: 5, RequestsPerFault: 16, WindowMode: true, PostACKDelay: 5 * sim.Millisecond},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		"", "null", "{}", `{"source":"bogus"}`, `{"trace":{}}`, `{"trace":{"mode":"fast"}}`,
		`{"workload":{"pattern":"zigzag"}}`, `{"workload":{"sequence":"RAR","wss_bytes":-1}}`,
		// Hand-written names, so an encoder that drifts from its decoder
		// fails a seed.
		`{"source":"trace","workload":{"pattern":"sequential","sequence":"WAW"},"trace":{"mode":"open"}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s ExperimentSpec
		if json.Unmarshal(b, &s) != nil {
			return
		}
		_ = s.Validate()
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("encode decoded spec: %v", err)
		}
		var back ExperimentSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decode %s: %v", enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", enc, again)
		}
	})
}
