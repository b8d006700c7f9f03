package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pb is a minimal protobuf encoder for building canned profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) msg(field int, m *pb) *pb { return p.bytes(field, m.b) }

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// cannedProfile is a CPU profile over five functions:
//
//	1 runtime.mallocgc    2 powerfail/internal/ftl.(*FTL).BeginWrite
//	3 powerfail/internal/ssd.(*Device).Submit
//	4 powerfail.(*Campaign).Run.func1    5 runtime.gcBgMarkWorker
//
// Location 1 holds mallocgc inlined into BeginWrite, so its innermost
// powerfail frame is ftl.
func cannedProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "powerfail/internal/ftl.(*FTL).BeginWrite",
		"powerfail/internal/ssd.(*Device).Submit", "powerfail.(*Campaign).Run.func1",
		"runtime.gcBgMarkWorker"}
	p := new(pb)
	p.msg(1, new(pb).varint(1, 1).varint(2, 2))
	p.msg(1, new(pb).varint(1, 3).varint(2, 4))
	// ftl via an inlined runtime frame, location ids packed.
	p.msg(2, new(pb).bytes(1, packed(1, 3, 4)).bytes(2, packed(1, 10)))
	// ssd leaf, location ids unpacked.
	p.msg(2, new(pb).varint(1, 3).varint(1, 4).bytes(2, packed(2, 20)))
	// root package only.
	p.msg(2, new(pb).varint(1, 4).bytes(2, packed(1, 5)))
	// no powerfail frame at all.
	p.msg(2, new(pb).varint(1, 5).bytes(2, packed(3, 7)))
	line := func(fn uint64) *pb { return new(pb).varint(1, fn).varint(2, 42) }
	p.msg(4, new(pb).varint(1, 1).varint(3, 0x1000).msg(4, line(1)).msg(4, line(2)))
	p.msg(4, new(pb).varint(1, 3).msg(4, line(3)))
	p.msg(4, new(pb).varint(1, 4).msg(4, line(4)))
	p.msg(4, new(pb).varint(1, 5).msg(4, line(5)))
	for id := uint64(1); id <= 5; id++ {
		p.msg(5, new(pb).varint(1, id).varint(2, id+4))
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.varint(9, 123456) // time_nanos: ignored
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()
	return gz.Bytes()
}

func TestAttributeCannedProfile(t *testing.T) {
	p, err := parseProfile(cannedProfile())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.attribute("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"ftl": 10, "ssd": 20, "campaign": 5, "runtime": 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %d, want %d (all %v)", k, got[k], v, got)
		}
	}
	if _, err := p.attribute("alloc_space"); err == nil {
		t.Error("attributing a missing sample type succeeded")
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	p := new(pb).bytes(6, []byte("cpu"))
	if _, err := parseProfile(p.b[:len(p.b)-1]); err == nil {
		t.Error("truncated profile parsed")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"powerfail/internal/sim.(*Kernel).Step":               "sim",
		"powerfail/internal/dram.(*Cache).Insert.func2":       "dram",
		"powerfail/internal/sim.heapPush[go.shape.struct {}]": "sim",
		"powerfail.ItemKey":                                   "campaign",
		"runtime.mallocgc":                                    "",
		"main.runItem":                                        "",
		"type:.eq.powerfail/internal/ssd.command":             "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
