package powerfail_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"sort"
	"testing"

	"powerfail"
)

// catalogDigestScale is the catalog scale the checked-in digests pin.
const catalogDigestScale = 0.05

// catalogDigests runs the whole catalog at catalogDigestScale and returns
// one SHA-256 per figure over the JSON of its results (item order) and its
// figure summary. Wall time is not part of either encoding, so the digests
// depend only on the simulation.
func catalogDigests(t *testing.T) map[string]string {
	t.Helper()
	out, err := powerfail.NewCampaign(powerfail.AllItems(catalogDigestScale),
		powerfail.WithParallelism(2)).Run(context.Background())
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
	return digests
}

// TestCatalogDigests pins every report byte of the catalog: a change that
// claims to keep the same behaviour must reproduce the checked-in
// per-figure digests. A deliberate model change replaces
// testdata/catalog_digests.json with the set this test prints and says so
// in the change description.
func TestCatalogDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/catalog_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("testdata/catalog_digests.json: %v", err)
	}
	got := catalogDigests(t)

	figs := make([]string, 0, len(got)+len(want))
	for fig := range got {
		figs = append(figs, fig)
	}
	for fig := range want {
		if _, ok := got[fig]; !ok {
			figs = append(figs, fig)
		}
	}
	sort.Strings(figs)
	bad := false
	for _, fig := range figs {
		if got[fig] != want[fig] {
			t.Errorf("figure %q: digest %q, want %q", fig, got[fig], want[fig])
			bad = true
		}
	}
	if bad {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("catalog digests at scale %g:\n%s", catalogDigestScale, b)
	}
}
