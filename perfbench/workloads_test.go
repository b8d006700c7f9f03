package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"powerfail"
)

func TestWorkloadSizes(t *testing.T) {
	for name, want := range map[string]int{"paper": 66, "composite": 207, "fleet": 12} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := w.itemCount(); err != nil || n != want {
			t.Errorf("%s: %d items (%v), want %d", name, n, err, want)
		}
	}
}

// keys returns the ItemKey (spec identity, seed included) of every
// planned item of w under base seed seed.
func keys(t *testing.T, w workload, seed uint64) []string {
	t.Helper()
	items, err := w.items(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, it := range plan(items, seed) {
		out = append(out, powerfail.ItemKey(it))
	}
	return out
}

func TestItemListsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := keys(t, w, 7), keys(t, w, 7), keys(t, w, 8)
		if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: item counts %d, %d, %d", w.name, len(a), len(b), len(c))
		}
		seen := map[string]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s item %d: same seed, different items", w.name, i)
			}
			if a[i] == c[i] {
				t.Errorf("%s item %d: seeds 7 and 8 give the same item", w.name, i)
			}
			if seen[a[i]] {
				t.Errorf("%s item %d: duplicate item", w.name, i)
			}
			seen[a[i]] = true
		}
	}
}

func TestFleetItemsAtDatacenterSize(t *testing.T) {
	w, _ := workloadByName("fleet")
	items, err := w.items(nil)
	if err != nil {
		t.Fatal(err)
	}
	spared := 0
	for _, it := range items {
		f := it.Opts.Fleet
		if f == nil || f.Arrays != fleetArrays || f.GroupSize != 4 {
			t.Fatalf("%s: fleet config %+v", it.Label, f)
		}
		if f.Spares != 0 && f.Spares != fleetSpares {
			t.Errorf("%s: %d spares", it.Label, f.Spares)
		}
		if f.Spares > 0 {
			spared++
		}
	}
	if spared != len(items)/2 {
		t.Errorf("%d of %d points have spares, want half", spared, len(items))
	}
}

// sampleItems is a cheap cross-section of every workload: the first item
// of each figure.
func sampleItems(t *testing.T) []powerfail.CatalogItem {
	t.Helper()
	var out []powerfail.CatalogItem
	for _, w := range workloads {
		items, err := w.items(nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, it := range items {
			if !seen[it.Figure] {
				seen[it.Figure] = true
				out = append(out, it)
			}
		}
	}
	return out
}

func campaignDigest(t *testing.T, items []powerfail.CatalogItem, parallel int) string {
	t.Helper()
	out, err := powerfail.NewCampaign(items, powerfail.WithParallelism(parallel),
		powerfail.WithBaseSeed(3)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("%d items failed", out.Failed)
	}
	d, err := digest(out.Results)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDigestSameAtOneAndTwoWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign twice")
	}
	items := sampleItems(t)
	d1, d2 := campaignDigest(t, items, 1), campaignDigest(t, items, 2)
	if d1 != d2 {
		t.Fatalf("digest %s at 1 worker, %s at 2", d1, d2)
	}
}

// TestTracedRunMatchesCampaign runs a small workload both ways: the traced
// run must reproduce the campaign's digest and attribute its profile.
func TestTracedRunMatchesCampaign(t *testing.T) {
	w := workload{name: "small", figures: []string{"tablei", "fleet"}, scale: 0.01, copies: 1}
	dir := t.TempDir()
	camp := runCampaign(w, 5, "")
	traced := runTraced(w, 5, "", filepath.Join(dir, "spans.json"))
	for _, r := range []*childResult{camp, traced} {
		if len(r.Problems) > 0 || r.Failed > 0 || r.Items == 0 {
			t.Fatalf("traced=%v: %d/%d failed, problems %v", r.Traced, r.Failed, r.Items, r.Problems)
		}
	}
	if camp.Digest != traced.Digest {
		t.Fatalf("traced digest %s, campaign %s", traced.Digest, camp.Digest)
	}
	if traced.Counts["sim.events"] != int64(camp.Events) || traced.Counts["ftl.writes_mapped"] == 0 {
		t.Errorf("counts %v, campaign events %d", traced.Counts, camp.Events)
	}
	var self int64
	for _, v := range traced.SelfNS {
		self += v
	}
	if self == 0 || len(traced.AllocBytes) == 0 {
		t.Errorf("no attributed profile: self %v, alloc %v", traced.SelfNS, traced.AllocBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, "spans.json")); err != nil {
		t.Error(err)
	}
}
