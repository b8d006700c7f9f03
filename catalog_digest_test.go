package powerfail_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"sort"
	"testing"

	"powerfail"
	"powerfail/internal/obs"
)

// catalogDigestScale is the catalog scale the checked-in digests pin.
const catalogDigestScale = 0.05

// catalogDigests runs items and returns one SHA-256 per figure over the
// JSON of its results (item order) and its figure summary, plus the
// campaign result for further checks. Wall time is not part of either
// encoding, so the digests depend only on the simulation.
func catalogDigests(t *testing.T, items []powerfail.CatalogItem) (map[string]string, *powerfail.CampaignResult) {
	t.Helper()
	out, err := powerfail.NewCampaign(items, powerfail.WithParallelism(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]hash.Hash{}
	add := func(fig string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", fig, err)
		}
		h, ok := hashes[fig]
		if !ok {
			h = sha256.New()
			hashes[fig] = h
		}
		h.Write(append(b, '\n'))
	}
	for _, res := range out.Results {
		if res.Err != nil {
			t.Fatalf("%s %s: %v", res.Item.Figure, res.Item.Label, res.Err)
		}
		add(res.Item.Figure, res)
	}
	for _, fs := range out.Figures {
		add(fs.Figure, fs)
	}
	digests := make(map[string]string, len(hashes))
	for fig, h := range hashes {
		digests[fig] = hex.EncodeToString(h.Sum(nil))
	}
	return digests, out
}

// checkDigests compares got against the checked-in digest file and, on a
// mismatch, names each differing key and logs the full new set.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bad := false
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%q: digest %q, want %q", k, got[k], want[k])
			bad = true
		}
	}
	if bad {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("digests for %s:\n%s", path, b)
	}
}

// TestCatalogDigests pins every report byte of the catalog: a change that
// claims to keep the same behaviour must reproduce the checked-in
// per-figure digests. A deliberate model change replaces
// testdata/catalog_digests.json with the set this test prints and says so
// in the change description.
func TestCatalogDigests(t *testing.T) {
	got, _ := catalogDigests(t, powerfail.AllItems(catalogDigestScale))
	checkDigests(t, "testdata/catalog_digests.json", got)
}

// TestObsDigests pins the bytes observability adds: the first item of
// every figure at catalogDigestScale runs with DefaultObsConfig, and the
// test hashes each figure's results JSON (which carries the obs
// summaries) and, under the key "chrome", the merged Chrome trace of all
// of them, after checking that trace with obs.ValidateChromeTrace.
// testdata/obs_digests.json changes only with a deliberate change to the
// model or to what the obs layer records.
func TestObsDigests(t *testing.T) {
	seen := map[string]bool{}
	var items []powerfail.CatalogItem
	cfg := powerfail.DefaultObsConfig()
	for _, it := range powerfail.AllItems(catalogDigestScale) {
		if seen[it.Figure] {
			continue
		}
		seen[it.Figure] = true
		it.Opts.Obs = &cfg
		items = append(items, it)
	}
	got, out := catalogDigests(t, items)

	procs := make([]powerfail.ObsProcess, 0, len(out.Results))
	for _, res := range out.Results {
		procs = append(procs, powerfail.ObsProcess{
			Name:   res.Item.Figure + "/" + res.Item.Label,
			Events: res.Report.ObsTrace,
		})
	}
	var b bytes.Buffer
	if err := powerfail.WriteObsChromeTrace(&b, procs); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("merged Chrome trace: %v", err)
	}
	if n == 0 {
		t.Fatal("merged Chrome trace holds no events")
	}
	sum := sha256.Sum256(b.Bytes())
	got["chrome"] = hex.EncodeToString(sum[:])
	checkDigests(t, "testdata/obs_digests.json", got)
}
