// Txncompare runs the transactional WAL application layer under identical
// power-fault schedules and contrasts what the crash-consistency oracle
// reports across the commit-barrier × device matrix:
//
//   - flush-per-commit on the SSD: the barrier closes the volatile-cache
//     window, so every acknowledged transaction survives — at the price of
//     one flush per commit.
//   - no-flush on the SSD: commits acknowledge out of DRAM; after the cut
//     the oracle finds lost commits (the application-level false write
//     acknowledge) and, when the flusher raced ahead, out-of-order
//     durability.
//   - the same two policies on a write-through HDD: the mechanical ACK
//     already implies durability, so even no-flush loses nothing — the
//     paper's block-level contrast, reproduced at transaction granularity.
package main

import (
	"fmt"
	"log"

	"powerfail"
)

func run(name string, opts powerfail.Options) *powerfail.Report {
	rep, err := powerfail.Run(opts, powerfail.Experiment{
		Name:             name,
		Faults:           10,
		RequestsPerFault: 20,
	})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	if rep.TxnStats == nil {
		log.Fatalf("%s: no TxnStats in the report", name)
	}
	return rep
}

func main() {
	ssdProf := powerfail.ProfileA()
	ssdProf.CapacityGB = 8
	hddTopo := powerfail.HDDTopology(powerfail.DefaultHDD())

	type point struct {
		name string
		opts powerfail.Options
	}
	var points []point
	for _, bar := range []struct {
		tag string
		b   powerfail.TxnBarrier
	}{
		{"flush-per-commit", powerfail.FlushPerCommit},
		{"no-flush", powerfail.NoFlushBarrier},
	} {
		cfg := powerfail.DefaultTxnConfig()
		cfg.Barrier = bar.b
		points = append(points,
			point{bar.tag + " / SSD", powerfail.Options{Seed: 7, Profile: ssdProf, Txn: &cfg}},
			point{bar.tag + " / HDD", powerfail.Options{Seed: 7, Topology: hddTopo, Txn: &cfg}},
		)
	}

	fmt.Println("WAL transactions under identical fault schedules (10 cuts each):")
	fmt.Printf("%-24s %-10s %-8s %-12s %-6s %-13s %-8s\n",
		"configuration", "committed", "intact", "lost-commit", "torn", "out-of-order", "unacked")
	var ssdNoFlushLost, flushLost int64
	for _, pt := range points {
		s := run(pt.name, pt.opts).TxnStats
		fmt.Printf("%-24s %-10d %-8d %-12d %-6d %-13d %-8d\n",
			pt.name, s.Committed, s.Intact, s.LostCommits, s.Torn, s.OutOfOrder, s.Unacked)
		switch pt.name {
		case "no-flush / SSD":
			ssdNoFlushLost = s.Losses()
		case "flush-per-commit / SSD", "flush-per-commit / HDD":
			flushLost += s.Losses()
		}
	}

	fmt.Println("\nThe flush barrier buys the WAL contract on volatile-cache flash;")
	fmt.Println("the write-through disk gets it for free; skipping the barrier on the")
	fmt.Println("SSD turns acknowledged commits into application-visible losses.")
	if flushLost != 0 {
		log.Fatal("BUG: flush-per-commit lost acknowledged transactions")
	}
	if ssdNoFlushLost == 0 {
		log.Fatal("BUG: no-flush on a volatile-cache SSD lost nothing")
	}
}
