package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"powerfail/internal/sim"
)

// FuzzReadUnifiedEvents: the Chrome trace is the one serialised form of
// the unified event stream, and ValidateChromeTrace is its reader —
// TestObsDigests gates the catalog's merged trace on it.
//
//  1. ValidateChromeTrace returns (count, error) for arbitrary input
//     without panicking, and the count of an accepted trace is the number
//     of records in its traceEvents array.
//  2. Writer and reader agree: events built from the same bytes, written
//     with WriteChromeTrace, validate with one record per event plus the
//     process and thread metadata, and the writer is deterministic.
func FuzzReadUnifiedEvents(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteChromeTrace(&valid, []Process{{Name: "item-0", Events: []Event{
		{At: 100, Dur: 800, Kind: KindBlockIO, Comp: "blk", Name: "W", Value: 9},
		{At: 1000, Kind: KindPower, Comp: "power", Name: "rack0", Value: 1},
		{At: 2000, Dur: 500, Kind: KindTxn, Comp: "txn", Name: "commit", Value: 17},
		{At: 2500, Kind: KindQueueDepth, Comp: "blockdev", Name: "inflight", Value: 3},
	}}}); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		"",
		"{}",
		valid.String(),
		`{"traceEvents":[]}`,
		`{"traceEvents":null}`,
		`[1,2]`,
		`{"traceEvents":[1]}`,
		`{"traceEvents":[{"ph":"Z","name":"x","ts":0,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"ph":"X","name":"x","ts":-1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":"1","pid":1,"tid":1}]}`,
		`{"traceEvents":[{"ph":"i","name":"x","ts":0,"pid":1}]}`,
	}
	// One flipped bit at each of evenly spaced offsets of the valid trace.
	const mutants = 26
	for k := 0; k < mutants; k++ {
		mut := append([]byte(nil), valid.Bytes()...)
		mut[k*len(mut)/mutants] ^= 0x20
		seeds = append(seeds, string(mut))
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if n, err := ValidateChromeTrace(bytes.NewReader(b)); err == nil {
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.NewDecoder(bytes.NewReader(b)).Decode(&doc); err != nil {
				t.Fatalf("accepted trace does not decode: %v", err)
			}
			if n != len(doc.TraceEvents) {
				t.Fatalf("validated %d events, the array holds %d", n, len(doc.TraceEvents))
			}
		}

		events, comps := eventsOf(b)
		procs := []Process{{Name: "fuzz", Events: events}}
		var out, again bytes.Buffer
		if err := WriteChromeTrace(&out, procs); err != nil {
			t.Fatal(err)
		}
		if err := WriteChromeTrace(&again, procs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("chrome export is not deterministic")
		}
		n, err := ValidateChromeTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written trace rejected: %v\n%s", err, out.String())
		}
		if want := 1 + comps + len(events); n != want {
			t.Fatalf("validated %d events, want %d:\n%s", n, want, out.String())
		}
	})
}

// eventsOf builds a trace from fuzz bytes, four bytes per event: kind,
// component, time step and duration. Times never move backward and
// durations are non-negative, as on the simulated clock. Names are never
// empty; one of them is the input itself, so the JSON escaping of
// arbitrary bytes is exercised. It returns the events and the number of
// distinct components they use.
func eventsOf(b []byte) ([]Event, int) {
	compNames := []string{"blk", "power", "txn", "blockdev"}
	names := []string{"R", "commit", `a"b`, "\u00e9", string(b) + "."}
	var events []Event
	used := map[string]bool{}
	var at sim.Time
	for i := 0; i+4 <= len(b); i += 4 {
		at += sim.Time(b[i+2]%4) * 1000
		comp := compNames[int(b[i+1])%len(compNames)]
		used[comp] = true
		events = append(events, Event{
			At:    at,
			Dur:   sim.Duration(b[i+3]) * 10,
			Kind:  Kind(b[i] % byte(len(kindNames)+1)),
			Comp:  comp,
			Name:  names[int(b[i]>>4)%len(names)],
			Value: int64(b[i+3]) - 128,
		})
	}
	return events, len(used)
}
