package powerfail_test

import (
	"context"
	"strings"
	"testing"

	"powerfail"
)

// runTxnStreamsFigure executes the txn-streams catalog at a small scale
// and fails on any item error.
func runTxnStreamsFigure(t *testing.T, parallelism int) *powerfail.CampaignResult {
	t.Helper()
	items := smallItems(t, "txn-streams", 0.02)
	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(parallelism),
	).Run(context.Background())
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	if out.Completed != len(items) {
		t.Fatalf("completed %d, want %d", out.Completed, len(items))
	}
	return out
}

// TestTxnStreamsPolicyAblation: the recovery-policy acceptance pair over
// the whole figure — on every item (same schedule, same observations)
// the strict scan loses at least as much as the hole-tolerant replay,
// the headline TxnStats is the hole-tolerant row (the default primary
// policy, reproducing the PR-3 "txn" verdict semantics on the streams=1
// points), and the figure actually covers the stream counts and
// topologies it advertises.
func TestTxnStreamsPolicyAblation(t *testing.T) {
	out := runTxnStreamsFigure(t, 4)
	streamsSeen := map[string]bool{}
	toposSeen := map[string]bool{}
	var htLosses, strictLosses, unreachable int64
	for _, res := range out.Results {
		rep := res.Report
		parts := strings.Split(res.Item.Label, "/")
		if len(parts) != 3 {
			t.Fatalf("label shape changed: %q", res.Item.Label)
		}
		streamsSeen[parts[0]] = true
		toposSeen[parts[2]] = true

		ht := rep.TxnPolicy(powerfail.HoleTolerantRecovery)
		strict := rep.TxnPolicy(powerfail.StrictScanRecovery)
		if strict.Losses() < ht.Losses() {
			t.Fatalf("%s: strict-scan lost %d < hole-tolerant %d on the same schedule",
				res.Item.Label, strict.Losses(), ht.Losses())
		}
		if strict.ScanPages > ht.ScanPages {
			t.Fatalf("%s: strict scan read %d pages > hole-tolerant %d",
				res.Item.Label, strict.ScanPages, ht.ScanPages)
		}
		if *rep.TxnStats != ht {
			t.Fatalf("%s: headline TxnStats is not the hole-tolerant row", res.Item.Label)
		}
		if rep.TxnStats.Committed == 0 || rep.TxnStats.Evaluated == 0 {
			t.Fatalf("%s: engine idle", res.Item.Label)
		}
		if strings.HasPrefix(res.Item.Label, "s1/flush/") && ht.Losses() != 0 {
			t.Fatalf("%s: flush-per-commit on one stream lost %d transactions",
				res.Item.Label, ht.Losses())
		}
		htLosses += ht.Losses()
		strictLosses += strict.Losses()
		unreachable += rep.TxnUnreachable()
	}
	for _, want := range []string{"s1", "s4", "s8"} {
		if !streamsSeen[want] {
			t.Fatalf("figure misses stream count %s: %v", want, streamsSeen)
		}
	}
	for _, want := range []string{"ssd", "raid5", "cached-hdd"} {
		if !toposSeen[want] {
			t.Fatalf("figure misses topology %s: %v", want, toposSeen)
		}
	}
	if htLosses == 0 {
		t.Fatal("no txn-streams point lost transactions — volatile paths not reached")
	}
	if strictLosses < htLosses || unreachable != strictLosses-htLosses {
		t.Fatalf("ablation totals inconsistent: ht=%d strict=%d unreachable=%d",
			htLosses, strictLosses, unreachable)
	}
}
