// Package runstore persists campaign runs as self-describing archives and
// computes differential reports between two archives (the benchstat-style
// comparison cmd/powerstat prints).
//
// An archive is a JSON-lines file:
//
//	{"kind":"manifest", ...}   one header: tool/Go version, VCS revision,
//	                           base seed, and the identity of every item
//	{"kind":"item", ...}       appended as each item completes: the item
//	                           key and its full report JSON (verbatim)
//	{"kind":"final", ...}      written once the campaign completed fully:
//	                           merged per-figure aggregates and wall time
//
// The per-item records are appended in completion order, which under a
// parallel campaign differs from item order; the item key — not the file
// position — is an item's identity. An interrupted campaign leaves a
// valid archive with no final record; resuming from it re-uses every
// journaled report byte-for-byte, so the resumed campaign's output is
// byte-identical to an uninterrupted run. A trailing partial line (a
// crash mid-append) is ignored on read.
package runstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// FormatVersion is the archive format this package writes.
const FormatVersion = 1

// ItemSpec identifies one catalog item in the manifest.
type ItemSpec struct {
	Index  int     `json:"index"`
	Figure string  `json:"figure"`
	Label  string  `json:"label"`
	Seed   uint64  `json:"seed"`
	X      float64 `json:"x"`
	// Key is the item's spec identity: a content hash of the item's
	// options and experiment spec. Resume matches journaled records
	// against fresh items by this key, so a changed spec re-runs.
	Key string `json:"key"`
}

// Manifest is the archive header.
type Manifest struct {
	V    int    `json:"v"`
	Tool string `json:"tool"`
	// Version/GoVersion/VCSRevision record what produced the archive
	// (best effort; empty outside a module build).
	Version     string `json:"version,omitempty"`
	GoVersion   string `json:"go"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	// Created is the wall-clock start, RFC3339. Process telemetry only:
	// nothing deterministic reads it back.
	Created string `json:"created,omitempty"`

	Figure   string  `json:"figure,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	BaseSeed uint64  `json:"base_seed,omitempty"`

	// Shard/ShardCount mark an archive written by a sharded run: only the
	// items whose global index is congruent to Shard modulo ShardCount were
	// executed and journaled. Item indices, seeds and keys are those of the
	// full campaign, so merging every shard's records reproduces exactly
	// the record set of an unsharded run. Both are zero (and omitted) for
	// ordinary archives, keeping pre-shard archive bytes unchanged.
	Shard      int `json:"shard,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`

	Items []ItemSpec `json:"items"`
}

// ItemRecord is one completed item: its identity and its report exactly
// as the campaign marshaled it. Error records items that failed (their
// reports are never reused on resume).
type ItemRecord struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Figure string          `json:"figure"`
	Label  string          `json:"label"`
	Seed   uint64          `json:"seed"`
	Error  string          `json:"error,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

// Final closes a fully-completed archive: totals, the merged per-figure
// aggregates (verbatim campaign JSON), and process telemetry.
type Final struct {
	Items     int             `json:"items"`
	Completed int             `json:"completed"`
	Failed    int             `json:"failed"`
	SimNS     int64           `json:"sim_ns"`
	Figures   json.RawMessage `json:"figures,omitempty"`
	WallNS    int64           `json:"wall_ns"`
	EventsPS  float64         `json:"events_per_sec,omitempty"`
}

// record is the on-disk envelope: a kind tag plus exactly one payload.
type record struct {
	Kind     string      `json:"kind"`
	Manifest *Manifest   `json:"manifest,omitempty"`
	Item     *ItemRecord `json:"item,omitempty"`
	Final    *Final      `json:"final,omitempty"`
}

// A Writer journals one campaign run to an archive file. Methods are not
// goroutine-safe; the campaign serializes appends on its result loop.
type Writer struct {
	f   *os.File
	w   *bufio.Writer
	err error
}

// Create opens path for writing and writes the manifest line. An existing
// file is truncated: an archive describes exactly one run.
func Create(path string, m Manifest) (*Writer, error) {
	m.V = FormatVersion
	if m.Created == "" {
		m.Created = time.Now().UTC().Format(time.RFC3339)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	w := &Writer{f: f, w: bufio.NewWriter(f)}
	if err := w.append(record{Kind: "manifest", Manifest: &m}); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) append(rec record) error {
	if w.err != nil {
		return w.err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = w.w.Write(append(b, '\n'))
	}
	if err == nil {
		// Flush per record so an interrupted run leaves every completed
		// item on disk — the whole point of journaling.
		err = w.w.Flush()
	}
	if err != nil {
		w.err = fmt.Errorf("runstore: append: %w", err)
	}
	return w.err
}

// Append journals one completed (or failed) item.
func (w *Writer) Append(rec ItemRecord) error {
	return w.append(record{Kind: "item", Item: &rec})
}

// Finalize writes the final record. Call only when every item completed.
func (w *Writer) Finalize(f Final) error {
	return w.append(record{Kind: "final", Final: &f})
}

// Close flushes and closes the underlying file.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	flushErr := w.w.Flush()
	closeErr := w.f.Close()
	w.f = nil
	if w.err != nil {
		return w.err
	}
	if flushErr != nil {
		return fmt.Errorf("runstore: %w", flushErr)
	}
	if closeErr != nil {
		return fmt.Errorf("runstore: %w", closeErr)
	}
	return nil
}

// Archive is a loaded run archive.
type Archive struct {
	Path     string
	Manifest Manifest
	// Items holds every journaled item record in file (completion) order.
	Items []ItemRecord
	// Final is non-nil only for a fully-completed run.
	Final *Final

	byKey map[string]*ItemRecord
}

// Open reads the archive at path. A trailing partial line is tolerated;
// anything else malformed is an error. Later records for the same key
// shadow earlier ones.
func Open(path string) (*Archive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return decode(path, data)
}

// decode parses archive bytes read from path (named in errors only).
func decode(path string, data []byte) (*Archive, error) {
	a := &Archive{Path: path}
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 {
				break // torn final append from an interrupted run
			}
			return nil, fmt.Errorf("runstore: %s line %d: %w", path, i+1, err)
		}
		switch rec.Kind {
		case "manifest":
			if rec.Manifest == nil {
				return nil, fmt.Errorf("runstore: %s line %d: empty manifest", path, i+1)
			}
			a.Manifest = *rec.Manifest
		case "item":
			if rec.Item == nil {
				return nil, fmt.Errorf("runstore: %s line %d: empty item", path, i+1)
			}
			a.Items = append(a.Items, *rec.Item)
		case "final":
			a.Final = rec.Final
		default:
			return nil, fmt.Errorf("runstore: %s line %d: unknown record kind %q", path, i+1, rec.Kind)
		}
	}
	if a.Manifest.V == 0 {
		return nil, fmt.Errorf("runstore: %s: not a run archive (no manifest)", path)
	}
	if a.Manifest.V > FormatVersion {
		return nil, fmt.Errorf("runstore: %s: archive format v%d is newer than this tool (v%d)",
			path, a.Manifest.V, FormatVersion)
	}
	// Rebuild byKey over the final slice: append may have moved entries.
	a.byKey = make(map[string]*ItemRecord, len(a.Items))
	for i := range a.Items {
		a.byKey[a.Items[i].Key] = &a.Items[i]
	}
	return a, nil
}

// Lookup returns the journaled record for an item key, or nil.
func (a *Archive) Lookup(key string) *ItemRecord {
	return a.byKey[key]
}

// Merge combines the item records of several archives — typically the N
// archives of an N-way sharded run — into one in-memory archive suitable
// for resuming. Records keep their file order per archive; across
// archives, later records for the same key shadow earlier ones, matching
// Open's semantics for a single file. The merged manifest is the first
// archive's with the shard marker cleared; archives disagreeing on
// figure or scale are refused. The merged archive carries no final
// record: the campaign resumed from it writes its own.
func Merge(archives ...*Archive) (*Archive, error) {
	if len(archives) == 0 {
		return nil, fmt.Errorf("runstore: merge: no archives")
	}
	m := archives[0].Manifest
	for _, a := range archives[1:] {
		if a.Manifest.Figure != m.Figure || a.Manifest.Scale != m.Scale {
			return nil, fmt.Errorf("runstore: merge: %s is figure %q scale %g, but %s is figure %q scale %g",
				archives[0].Path, m.Figure, m.Scale, a.Path, a.Manifest.Figure, a.Manifest.Scale)
		}
	}
	m.Shard, m.ShardCount = 0, 0
	merged := &Archive{Path: "merged", Manifest: m}
	for _, a := range archives {
		merged.Items = append(merged.Items, a.Items...)
	}
	merged.byKey = make(map[string]*ItemRecord, len(merged.Items))
	for i := range merged.Items {
		merged.byKey[merged.Items[i].Key] = &merged.Items[i]
	}
	return merged, nil
}

// Completed counts journaled items that carry a report (not an error).
func (a *Archive) Completed() int {
	n := 0
	for i := range a.Items {
		if a.Items[i].Error == "" && len(a.Items[i].Report) > 0 {
			n++
		}
	}
	return n
}
