package powerfail_test

import (
	"context"
	"fmt"

	"powerfail"
)

// ExampleRun injects power faults into the simulated SSD "A" while the
// paper's random-write workload runs, and prints the failure report.
func ExampleRun() {
	rep, err := powerfail.Run(
		powerfail.Options{Seed: 42, Profile: powerfail.ProfileA()},
		powerfail.Experiment{
			Name:             "quickstart",
			Workload:         powerfail.DefaultWorkload(),
			Faults:           5,
			RequestsPerFault: 16,
		})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(rep)
	fmt.Printf("%d writes issued, %d acknowledged and then lost (%d data failures, %d FWA)\n",
		rep.Writes, rep.DataLosses(), rep.DataFailures(), rep.FWA())
	// Output:
	// experiment "quickstart" on SSD A
	//   workload: random-write wss=16GB size=4-1024KB read%=0 random
	//   sim time: 7.449s (active 130.89ms)
	//   requests: 235 (0 reads, 235 writes; 230 completed, 5 errored, 0 not issued)
	//   faults:   5 injected (5 cuts, 5 restores)
	//   failures: 10 data failures, 13 FWA, 5 IO errors (0 late corruptions)
	//   data loss per fault: 4.60
	//   iops: responded 695
	// 235 writes issued, 23 acknowledged and then lost (10 data failures, 13 FWA)
}

// ExampleNewCampaign runs the paper's Fig. 5 (request type) and Fig. 9
// (access sequence) points as one campaign over a worker pool. The
// results come back in item order whatever the completion order, and each
// figure carries a 95% confidence interval on its loss rate. Losses fall
// as reads displace writes, and RAR never loses data.
func ExampleNewCampaign() {
	items := append(powerfail.Fig5Items(0.01), powerfail.Fig9Items(0.01)...)
	done := 0
	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(2),
		powerfail.WithBaseSeed(100),
		powerfail.WithFailFast(),
		powerfail.WithProgress(func(powerfail.CatalogResult) { done++ }),
	).Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d of %d items done, %.0f s simulated\n", done, out.Items, out.SimTime.Seconds())
	for _, res := range out.Results {
		r := res.Report
		fmt.Printf("%-4s %-9s faults=%d data=%d fwa=%d ioerr=%d\n",
			res.Item.Figure, res.Item.Label, r.Faults, r.DataFailures(), r.FWA(), r.IOErrors())
	}
	for _, f := range out.Figures {
		fmt.Printf("%s loss/fault %.2f ± %.2f over %d points, %d faults\n",
			f.Figure, f.LossPerFault.Mean, f.LossPerFault.CI95, f.LossPerFault.N, f.Faults)
	}
	// Output:
	// 9 of 9 items done, 65 s simulated
	// fig5 read%=0   faults=5 data=9 fwa=14 ioerr=5
	// fig5 read%=20  faults=5 data=9 fwa=16 ioerr=5
	// fig5 read%=50  faults=5 data=4 fwa=15 ioerr=5
	// fig5 read%=80  faults=5 data=3 fwa=2 ioerr=5
	// fig5 read%=100 faults=5 data=0 fwa=0 ioerr=5
	// fig9 RAW       faults=5 data=3 fwa=13 ioerr=5
	// fig9 WAR       faults=5 data=4 fwa=13 ioerr=5
	// fig9 RAR       faults=5 data=0 fwa=0 ioerr=5
	// fig9 WAW       faults=5 data=20 fwa=11 ioerr=5
	// fig5 loss/fault 2.88 ± 1.97 over 5 points, 25 faults
	// fig9 loss/fault 3.20 ± 2.48 over 4 points, 20 faults
}

// ExampleDischargeCurve samples the 5 V rail after a cut (the paper's
// Fig. 4). The attached SSD drains the supply faster, and the drive sees
// the 4.5 V brownout about 40 ms after the cut.
func ExampleDischargeCurve() {
	idle, _ := powerfail.DischargeCurve(false, 300*powerfail.Millisecond, 1500*powerfail.Millisecond)
	loaded, _ := powerfail.DischargeCurve(true, 300*powerfail.Millisecond, 1500*powerfail.Millisecond)
	fmt.Println("after cut  idle    with SSD")
	for i := range idle {
		fmt.Printf("%4.0f ms    %.2f V  %.2f V\n", idle[i].T.Millis(), idle[i].V, loaded[i].V)
	}
	_, brownout := powerfail.DischargeCurve(true, powerfail.Millisecond, 100*powerfail.Millisecond)
	fmt.Printf("4.5 V brownout after %.0f ms\n", brownout.Millis())
	// Output:
	// after cut  idle    with SSD
	//    0 ms    5.00 V  5.00 V
	//  300 ms    2.91 V  2.27 V
	//  600 ms    1.69 V  1.03 V
	//  900 ms    0.99 V  0.47 V
	// 1200 ms    0.57 V  0.21 V
	// 1500 ms    0.33 V  0.10 V
	// 4.5 V brownout after 41 ms
}

// ExampleCatalogItem builds catalog items by hand: one workload and one
// seed, so every build sees the same fault schedule. A supercapacitor
// (PLP), the write-through HDD and the write-through SSD cache lose no
// acknowledged write. The mixed RAID-6 array's QLC straggler loses the
// most dirty pages.
func ExampleCatalogItem() {
	ssd := powerfail.ProfileA()
	ssd.CapacityGB = 8
	weak := powerfail.ProfileQ()
	weak.CapacityGB = 8
	builds := []struct {
		label string
		opts  powerfail.Options
	}{
		{"ssd", powerfail.Options{Profile: ssd}},
		{"ssd-nocache", powerfail.Options{Profile: ssd.WithCacheDisabled()}},
		{"ssd-plp", powerfail.Options{Profile: ssd.WithSuperCap()}},
		{"hdd", powerfail.Options{Topology: powerfail.HDDTopology(powerfail.DefaultHDD())}},
		{"raid5x3", powerfail.Options{Topology: powerfail.ArrayTopology(
			powerfail.RAIDConfig(powerfail.RAID5, 3, ssd))}},
		{"rs4+2", powerfail.Options{Topology: powerfail.ArrayTopology(
			powerfail.RSConfig(4, 2, ssd))}},
		{"raid6-mixed", powerfail.Options{Topology: powerfail.ArrayTopology(
			powerfail.MixedRAIDConfig(powerfail.RAID6, ssd, ssd, ssd, weak))}},
		{"cache-wt", powerfail.Options{Topology: powerfail.ArrayTopology(
			powerfail.CacheConfig(ssd, powerfail.DefaultHDD(), powerfail.WriteThrough))}},
	}
	w := powerfail.Workload{Name: "writes", WSSBytes: 1 << 30, MinSize: 4 << 10, MaxSize: 64 << 10}
	var items []powerfail.CatalogItem
	for i, b := range builds {
		b.opts.Seed = 7
		items = append(items, powerfail.CatalogItem{
			Figure: "builds",
			Label:  b.label,
			X:      float64(i),
			Opts:   b.opts,
			Spec:   powerfail.Experiment{Name: b.label, Workload: w, Faults: 5, RequestsPerFault: 10},
		})
	}
	out, err := powerfail.NewCampaign(items, powerfail.WithParallelism(2)).Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, res := range out.Results {
		r := res.Report
		fmt.Printf("%-12s acked=%-4d lost=%-3d ioerr=%d\n", res.Item.Label, r.Completed, r.DataLosses(), r.IOErrors())
		if res.Item.Label == "raid6-mixed" {
			for _, m := range r.Members {
				fmt.Printf("  member %d (%s) dirty-lost=%d\n", m.Index, m.Name, m.DirtyPagesLost)
			}
		}
	}
	// Output:
	// ssd          acked=585  lost=74  ioerr=5
	// ssd-nocache  acked=459  lost=0   ioerr=5
	// ssd-plp      acked=585  lost=0   ioerr=5
	// hdd          acked=59   lost=0   ioerr=5
	// raid5x3      acked=302  lost=98  ioerr=5
	// rs4+2        acked=210  lost=87  ioerr=5
	// raid6-mixed  acked=241  lost=77  ioerr=5
	//   member 0 (A) dirty-lost=361
	//   member 1 (A) dirty-lost=463
	//   member 2 (A) dirty-lost=521
	//   member 3 (Q) dirty-lost=578
	// cache-wt     acked=62   lost=0   ioerr=5
}

// ExampleTraceReplay replays the bundled MSR-style trace closed- and
// open-loop through the same fault pipeline as the synthetic generator.
func ExampleTraceReplay() {
	tr, err := powerfail.BundledTrace("msr-web")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(tr)
	prof := powerfail.ProfileA()
	prof.CapacityGB = 8
	w := powerfail.DefaultWorkload()
	w.WSSBytes = 1 << 30
	for _, spec := range []powerfail.Experiment{
		{Name: "synthetic", Workload: w},
		{Name: "closed", Trace: powerfail.TraceReplay(tr, powerfail.TraceClosedLoop)},
		{Name: "open", Trace: powerfail.TraceReplay(tr, powerfail.TraceOpenLoop)},
	} {
		spec.Faults, spec.RequestsPerFault = 5, 16
		rep, err := powerfail.Run(powerfail.Options{Seed: 11, Profile: prof}, spec)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-9s source=%-8s requests=%-4d lost=%d", rep.Name, rep.Source, rep.Requests, rep.DataLosses())
		if s := rep.TraceStats; s != nil {
			fmt.Printf(" coverage=%.0f%%", 100*s.Coverage)
		}
		fmt.Println()
	}
	// Output:
	// trace msr-web: 200 records (183 writes) over 45.28ms, extent 261906 pages
	// synthetic source=workload requests=224  lost=20
	// closed    source=trace    requests=628  lost=93 coverage=100%
	// open      source=trace    requests=1044 lost=133 coverage=100%
}

// ExampleDefaultTxnConfig runs the write-ahead-log engine with several
// streams and no commit barrier. The oracle judges each cut under both
// recovery policies: the strict scan stops at the first torn log slot,
// so it loses at least what the hole-tolerant replay loses, and the gap
// is durable but unreachable commits.
func ExampleDefaultTxnConfig() {
	prof := powerfail.ProfileA()
	prof.CapacityGB = 8
	for _, streams := range []int{1, 4} {
		cfg := powerfail.DefaultTxnConfig()
		cfg.Streams = streams
		cfg.Barrier = powerfail.NoFlushBarrier
		rep, err := powerfail.Run(
			powerfail.Options{Seed: 11, Profile: prof, Txn: &cfg, Concurrency: streams},
			powerfail.Experiment{Name: "wal", Faults: 5, RequestsPerFault: 20})
		if err != nil {
			fmt.Println(err)
			return
		}
		ht := rep.TxnPolicy(powerfail.HoleTolerantRecovery)
		strict := rep.TxnPolicy(powerfail.StrictScanRecovery)
		fmt.Printf("streams=%d committed=%d hole-tolerant-lost=%d strict-lost=%d unreachable=%d\n",
			streams, ht.Committed, ht.Losses(), strict.Losses(), rep.TxnUnreachable())
	}
	// Output:
	// streams=1 committed=86 hole-tolerant-lost=19 strict-lost=25 unreachable=6
	// streams=4 committed=513 hole-tolerant-lost=3 strict-lost=3 unreachable=0
}

// ExampleDefaultFleetConfig cuts the same fleet at the PSU, rack and room
// levels of its fault-domain tree on one seed. Spares absorb a PSU cut,
// a rack cut downs whole groups, and a room cut downs everything, so the
// availability nines fall as the cut climbs the tree.
func ExampleDefaultFleetConfig() {
	for _, level := range []powerfail.FleetLevel{powerfail.FleetPSU, powerfail.FleetRack, powerfail.FleetRoom} {
		cfg := powerfail.DefaultFleetConfig()
		cfg.Spares = 4
		cfg.Member.Pages = 1024
		cfg.Faults.Level = level
		cfg.Faults.Outage = 3 * powerfail.Second
		rep, err := powerfail.Run(powerfail.Options{Seed: 42, Fleet: &cfg},
			powerfail.Experiment{Name: "fleet-" + level.String()})
		if err != nil {
			fmt.Println(err)
			return
		}
		s := rep.Fleet
		fmt.Printf("%-4s cuts=%d declared=%d spare-takes=%d availability=%.2f nines durability=%.2f nines\n",
			level, s.Cuts, s.DeclaredFailures, s.SpareTakes, s.AvailabilityNines, s.DurabilityNines)
	}
	// Output:
	// psu  cuts=3 declared=12 spare-takes=11 availability=12.00 nines durability=12.00 nines
	// rack cuts=3 declared=36 spare-takes=8 availability=0.69 nines durability=0.00 nines
	// room cuts=3 declared=64 spare-takes=0 availability=0.39 nines durability=0.00 nines
}
