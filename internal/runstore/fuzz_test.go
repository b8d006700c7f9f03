package runstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenArchive: an archive is outside bytes (sweep -resume and -merge
// read files a previous or remote run wrote), so arbitrary input must
// never panic Open's decoder, and a truncated archive must never invent
// records:
//
//  1. Open returns an archive or an error for arbitrary bytes.
//  2. When the input is a valid archive (Open accepts it and it ends in
//     a newline, so no torn tail was dropped), every prefix of it either
//     fails to open or yields a prefix of its item records: a crash
//     mid-append loses at most the record being written.
func FuzzOpenArchive(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.run")
	w, err := Create(path, Manifest{Tool: "fuzz", Figure: "fig5", Scale: 0.05, Items: []ItemSpec{{Key: "k0"}, {Index: 1, Key: "k1"}}})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []ItemRecord{
		{Key: "k0", Figure: "fig5", Label: "x", Seed: 1, Report: json.RawMessage(`{"faults":3}`)},
		{Index: 1, Key: "k1", Figure: "fig5", Label: "y", Seed: 2, Error: "boom"},
		{Key: "k0", Figure: "fig5", Label: "x", Seed: 1, Report: json.RawMessage(`{"faults":4}`)},
	} {
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Finalize(Final{Items: 2, Completed: 1, Failed: 1, Figures: json.RawMessage(`[]`)}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []uint{0, 40, 200, 330, uint(len(valid))} {
		f.Add(valid, cut)
	}
	for _, s := range []string{
		"",
		"\n\n",
		`{"kind":"manifest"}` + "\n",
		`{"kind":"manifest","manifest":{"v":99}}` + "\n",
		`{"kind":"item","item":{"key":"k"}}` + "\n",
		`{"kind":"manifest","manifest":{"v":1}}` + "\n" + `{"kind":"item"}` + "\n",
		`{"kind":"manifest","manifest":{"v":1}}` + "\n" + `{"kind":"bogus"}` + "\n",
		`{"kind":"manifest","manifest":{"v":1}}` + "\n" + `{"kind":"item","item":{"key":"k"}}xyz`,
		"null\n",
	} {
		f.Add([]byte(s), uint(len(s)/2))
	}

	// Open is os.ReadFile plus decode; fuzzing decode directly skips the
	// file round trip per input.
	f.Fuzz(func(t *testing.T, b []byte, cut uint) {
		full, err := decode("in.run", b)
		if err != nil {
			return // rejected input: -resume reports it and stops
		}
		if tail := b[bytes.LastIndexByte(b, '\n')+1:]; len(bytes.TrimSpace(tail)) > 0 {
			return // Open dropped a torn tail; b is not a whole archive
		}
		p, err := decode("in.run", b[:cut%uint(len(b)+1)])
		if err != nil {
			return
		}
		if len(p.Items) > len(full.Items) || len(p.Items) > 0 && !reflect.DeepEqual(p.Items, full.Items[:len(p.Items)]) {
			t.Fatalf("prefix of %d bytes yields items\n%+v\nnot a prefix of\n%+v", cut%uint(len(b)+1), p.Items, full.Items)
		}
	})
}
