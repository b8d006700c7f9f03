package obs

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"powerfail/internal/blktrace"
)

// FuzzReadUnifiedEvents: an event log is outside bytes (blkreport reads
// it from stdin), so arbitrary input must never panic the reader, and any
// log it accepts must have exactly one meaning:
//
//  1. ReadUnifiedEvents returns (events, blk, error) for arbitrary input
//     without panicking.
//  2. Round trip: writing the accepted streams with WriteUnifiedEvents
//     and reading them back yields the same streams, time-ordered the way
//     the writer orders them.
func FuzzReadUnifiedEvents(f *testing.F) {
	valid := EventsHeader + "\n" +
		"t=10 blk Q W req=1 sub=-1 lpn=42 pages=8\n" +
		"t=50 obs span comp=runner name=\"fault cycle\" val=3 dur=200\n" +
		"t=220 blk C W req=1 sub=0 lpn=42 pages=8\n"
	seeds := []string{
		"",
		EventsHeader + "\n",
		valid,
		"# powerfail-events v99\n",
		"0.000000010 Q R req=1 sub=-1 lpn=1 pages=1\n", // pre-v2 headerless format
		EventsHeader + "\nt=0 \xa9\xef\x8c",            // token Sscanf reads as U+FFFD
		EventsHeader + "\nt=1 obs power comp=p name=\"a\\\"b\" val=-1 dur=0\n",
		EventsHeader + "\nt=1 xyz\n",
	}
	for i := len(EventsHeader) + 1; i < len(valid); i += 5 {
		mut := []byte(valid)
		mut[i] ^= 0x20
		seeds = append(seeds, string(mut))
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		events, blk, err := ReadUnifiedEvents(bytes.NewReader(b))
		if err != nil {
			return // rejected input: blkreport reports the line and exits
		}
		var buf bytes.Buffer
		if err := WriteUnifiedEvents(&buf, events, blk); err != nil {
			t.Fatal(err)
		}
		events2, blk2, err := ReadUnifiedEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded log rejected: %v\n%s", err, buf.String())
		}
		wantEvents := append([]Event(nil), events...)
		SortEvents(wantEvents)
		wantBlk := append([]blktrace.Event(nil), blk...)
		sort.SliceStable(wantBlk, func(i, j int) bool { return wantBlk[i].At < wantBlk[j].At })
		if !reflect.DeepEqual(events2, wantEvents) {
			t.Fatalf("obs events changed in round trip:\n got %+v\nwant %+v", events2, wantEvents)
		}
		if !reflect.DeepEqual(blk2, wantBlk) {
			t.Fatalf("blk events changed in round trip:\n got %+v\nwant %+v", blk2, wantBlk)
		}
	})
}
