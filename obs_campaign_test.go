package powerfail_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"powerfail"
)

// obsItems returns the first n items of a figure with the observability
// layer enabled on each.
func obsItems(t *testing.T, figure string, scale float64, n int) []powerfail.CatalogItem {
	t.Helper()
	items := smallItems(t, figure, scale)
	if n > 0 && len(items) > n {
		items = items[:n]
	}
	cfg := powerfail.DefaultObsConfig()
	for i := range items {
		items[i].Opts.Obs = &cfg
	}
	return items
}

// dumpSummaries renders every per-item obs summary as its deterministic
// text dump (nil summaries render empty).
func dumpSummaries(t *testing.T, out *powerfail.CampaignResult) []string {
	t.Helper()
	dumps := make([]string, len(out.Results))
	for i, res := range out.Results {
		if res.Report == nil || res.Report.Obs == nil {
			continue
		}
		var b strings.Builder
		if err := res.Report.Obs.Dump(&b); err != nil {
			t.Fatal(err)
		}
		dumps[i] = b.String()
	}
	return dumps
}

// TestCampaignObsEquivalence: enabling observability changes no campaign
// report, across figures that exercise the single-SSD, array and fleet
// paths.
func TestCampaignObsEquivalence(t *testing.T) {
	for _, fig := range []string{"seqrand", "array", "fleet"} {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			plain := smallItems(t, fig, 0.02)
			if len(plain) > 2 {
				plain = plain[:2]
			}
			instrumented := obsItems(t, fig, 0.02, 2)

			run := func(items []powerfail.CatalogItem) *powerfail.CampaignResult {
				out, err := powerfail.NewCampaign(items,
					powerfail.WithParallelism(2)).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			off := run(plain)
			on := run(instrumented)
			for i := range off.Results {
				offRep := off.Results[i].Report
				onRep := *on.Results[i].Report
				if onRep.Obs == nil {
					t.Fatalf("item %d: no obs summary on instrumented run", i)
				}
				onRep.Obs = nil // the only JSON-visible addition
				offJSON, err := json.Marshal(offRep)
				if err != nil {
					t.Fatal(err)
				}
				onJSON, err := json.Marshal(&onRep)
				if err != nil {
					t.Fatal(err)
				}
				if string(offJSON) != string(onJSON) {
					t.Errorf("item %d (%s): observability changed the report:\n%s\n%s",
						i, off.Results[i].Item.Label, offJSON, onJSON)
				}
			}
		})
	}
}

// TestFigureObsMerge: the per-figure summary merges the per-item
// observability summaries exactly — counters add and histogram counts sum
// bucket-for-bucket.
func TestFigureObsMerge(t *testing.T) {
	items := obsItems(t, "fleet", 0.02, 4)
	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 1 {
		t.Fatalf("figures = %d, want 1", len(out.Figures))
	}
	merged := out.Figures[0].Obs
	if merged == nil {
		t.Fatal("figure summary carries no merged obs")
	}

	parts := make([]*powerfail.ObsSummary, 0, len(out.Results))
	for _, res := range out.Results {
		parts = append(parts, res.Report.Obs)
	}
	want := powerfail.MergeObsSummaries(parts)
	if !reflect.DeepEqual(merged, want) {
		t.Error("figure obs summary != MergeObsSummaries of the item summaries")
	}

	// Counters add across items.
	var cuts int64
	for _, res := range out.Results {
		cuts += res.Report.Obs.Counter("power/cuts")
	}
	if got := merged.Counter("power/cuts"); got != cuts {
		t.Errorf("merged power/cuts = %d, want %d", got, cuts)
	}
	// Histogram counts sum, and quantiles stay within the merged extremes.
	var windows uint64
	for _, res := range out.Results {
		windows += res.Report.Obs.Histogram("fleet/rebuild_window_ns").Count
	}
	h := merged.Histogram("fleet/rebuild_window_ns")
	if h.Count != windows {
		t.Errorf("merged rebuild windows = %d, want %d", h.Count, windows)
	}
	if h.Count > 0 && (h.P50 < h.Min || h.P99 > h.Max) {
		t.Errorf("merged quantiles out of range: %+v", h)
	}

	// Events totals propagate to the campaign.
	var events uint64
	for _, res := range out.Results {
		events += res.Report.Events
	}
	if out.Events != events || out.Events == 0 {
		t.Errorf("campaign events = %d, want %d (nonzero)", out.Events, events)
	}
}
