package blktrace

import (
	"bytes"
	"testing"
)

// FuzzParsePerIO: a per-IO dump is outside bytes (blkreport -per-io reads
// it from stdin), so arbitrary input must never panic the parser, and any
// dump it accepts must keep its meaning when written back:
//
//  1. ParsePerIO returns ([]*IO, error) for arbitrary input without
//     panicking.
//  2. Round trip: DumpPerIO of the accepted records parses back to the
//     same records — identity, geometry, sub-request counts, terminal
//     state and the three timestamps.
func FuzzParsePerIO(f *testing.F) {
	var valid bytes.Buffer
	if err := DumpPerIO(&valid, Assemble(mkEvents())); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		"",
		valid.String(),
		"  q=1 d=2 c=3\n", // timing before header
		"io req=5 op=R lpn=1 pages=1 subs=1 done=0 err=0 state=timeout\n  q=0.000000010 d=0 c=0\n",
		"io req=6 op=W lpn=2 pages=1 subs=0 done=0 err=0 state=rejected\n",
		"io req=1 op=WW lpn=0 pages=1 subs=1 done=1 err=0 state=complete\n",
		"io req=1 op=W lpn=0 pages=1 subs=1 done=1 err=0 state=complete\n  q=1e300 d=-1e300 c=NaN\n",
	}
	for i := 0; i < valid.Len(); i += 7 {
		mut := append([]byte(nil), valid.Bytes()...)
		mut[i] ^= 0x20
		seeds = append(seeds, string(mut))
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		ios, err := ParsePerIO(bytes.NewReader(b))
		if err != nil {
			return // rejected input: blkreport reports the line and exits
		}
		var buf bytes.Buffer
		if err := DumpPerIO(&buf, ios); err != nil {
			t.Fatal(err)
		}
		back, err := ParsePerIO(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-dumped records rejected: %v\n%s", err, buf.String())
		}
		if len(back) != len(ios) {
			t.Fatalf("round trip changed the record count: %d -> %d", len(ios), len(back))
		}
		for i, want := range ios {
			if got := back[i]; *got != *want {
				t.Fatalf("round trip changed record %d:\n got %+v\nwant %+v\n%s", i, *got, *want, buf.String())
			}
		}
	})
}
