package powerfail_test

import (
	"context"
	"strings"
	"testing"

	"powerfail"
)

// TestBundledTracesParse: the checked-in fixtures parse, cover both
// accepted CSV formats, and carry enough write traffic to exercise the
// loss taxonomy.
func TestBundledTracesParse(t *testing.T) {
	names := powerfail.BundledTraceNames()
	if len(names) < 2 {
		t.Fatalf("bundled traces: %v", names)
	}
	for _, name := range names {
		tr, err := powerfail.BundledTrace(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Records) == 0 || tr.Writes() == 0 {
			t.Fatalf("%s: %d records, %d writes", name, len(tr.Records), tr.Writes())
		}
		if tr.Duration() <= 0 {
			t.Fatalf("%s: no arrival spread", name)
		}
	}
	if _, err := powerfail.BundledTrace("nope"); err == nil ||
		!strings.Contains(err.Error(), names[0]) {
		t.Fatalf("unknown-trace error does not enumerate fixtures: %v", err)
	}
}

// TestTraceFigureContrast: the replayed traffic reproduces the paper's
// topology contrast — the write-through HDD never loses acknowledged
// requests while the volatile-cache SSD does, under the very same trace.
func TestTraceFigureContrast(t *testing.T) {
	items := smallItems(t, "trace", 0.02)
	var picked []powerfail.CatalogItem
	for _, it := range items {
		if strings.Contains(it.Label, "msr-web") {
			picked = append(picked, it)
		}
	}
	if len(picked) == 0 {
		t.Fatal("catalog shape changed: no msr-web items")
	}
	out, err := powerfail.NewCampaign(picked, powerfail.WithParallelism(4)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ssdLosses int
	for _, res := range out.Results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Item.Label, res.Err)
		}
		switch {
		case strings.Contains(res.Item.Label, "/hdd/"):
			if res.Report.DataLosses() != 0 {
				t.Fatalf("%s: write-through HDD lost %d acknowledged requests",
					res.Item.Label, res.Report.DataLosses())
			}
		case strings.Contains(res.Item.Label, "/ssd/"):
			ssdLosses += res.Report.DataLosses()
		}
	}
	if ssdLosses == 0 {
		t.Fatal("trace replay on the volatile-cache SSD lost nothing")
	}
}
