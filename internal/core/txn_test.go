package core

import (
	"encoding/json"
	"testing"

	"powerfail/internal/txn"
	"powerfail/internal/workload"
)

// txnOpts runs the WAL application layer on a small single SSD.
func txnOpts(seed uint64, barrier txn.Barrier) Options {
	cfg := txn.DefaultConfig()
	cfg.Barrier = barrier
	return Options{Seed: seed, Profile: memberProfile(), Txn: &cfg}
}

func txnSpec(name string, faults int) ExperimentSpec {
	return ExperimentSpec{Name: name, Faults: faults, RequestsPerFault: 12}
}

// TestTxnFlushPerCommitNeverLosesCommits: the strict barrier half of the
// acceptance pair. When every commit is acknowledged only after an
// OpFlush completed, the WAL contract holds across power cuts: the oracle
// must report zero lost, torn or reordered commits.
func TestTxnFlushPerCommitNeverLosesCommits(t *testing.T) {
	rep := runSmall(t, txnOpts(71, txn.FlushPerCommit), txnSpec("txn-flush", 6))
	s := rep.TxnStats
	if s == nil {
		t.Fatal("no TxnStats on a txn-mode report")
	}
	if s.Committed == 0 || s.Evaluated == 0 {
		t.Fatalf("engine idle: %+v", s)
	}
	if s.Losses() != 0 {
		t.Fatalf("flush-per-commit broke the WAL contract: %s", s)
	}
	if s.Intact != s.Evaluated {
		t.Fatalf("evaluated %d but intact %d with zero losses", s.Evaluated, s.Intact)
	}
}

// TestTxnNoFlushLosesCommits: the volatile half of the acceptance pair.
// With no commit barrier on a volatile-cache SSD, acknowledged commit
// records die in DRAM and the oracle must observe lost commits.
func TestTxnNoFlushLosesCommits(t *testing.T) {
	rep := runSmall(t, txnOpts(72, txn.NoFlush), txnSpec("txn-noflush", 6))
	s := rep.TxnStats
	if s == nil {
		t.Fatal("no TxnStats on a txn-mode report")
	}
	if s.Committed == 0 || s.Evaluated == 0 {
		t.Fatalf("engine idle: %+v", s)
	}
	if s.LostCommits == 0 {
		t.Fatalf("no-flush on a volatile-cache SSD lost nothing: %s", s)
	}
	if s.OldestLostSeq == 0 {
		t.Fatalf("losses reported without an oldest-lost sequence: %s", s)
	}
}

// TestTxnLostCommitsCorroborated: the emergence criterion. Every
// oracle-level loss must be witnessed by device-level loss in the same
// report — the engine's records are ordinary analyzer packets, so a
// commit record the device dropped is simultaneously an FWA/data failure
// (or at minimum dirty DRAM loss) at the block level. The verdicts are
// derived from the device models, never scripted.
func TestTxnLostCommitsCorroborated(t *testing.T) {
	for _, barrier := range []txn.Barrier{txn.FlushPerCommit, txn.GroupCommit, txn.NoFlush} {
		for seed := uint64(80); seed < 83; seed++ {
			rep := runSmall(t, txnOpts(seed, barrier), txnSpec("txn-corr", 5))
			s := rep.TxnStats
			if s == nil {
				t.Fatal("no TxnStats on a txn-mode report")
			}
			if s.Losses() == 0 {
				continue
			}
			devLoss := rep.Counters.DataLosses()
			dirtyLost := int64(0)
			if rep.DeviceStats != nil {
				dirtyLost = rep.DeviceStats.DirtyPagesLost
			}
			if devLoss == 0 && dirtyLost == 0 {
				t.Fatalf("barrier=%s seed=%d: oracle reports %d losses without any device-level loss (data=%d fwa=%d dirty-lost=%d)",
					barrier, seed, s.Losses(), rep.Counters.DataFailures, rep.Counters.FWA, dirtyLost)
			}
		}
	}
}

// TestTxnOnHDDNoFlushStillDurable: topology contrast — the write-through
// HDD's ACK already implies durability, so even the NoFlush policy loses
// nothing at transaction granularity.
func TestTxnOnHDDNoFlushStillDurable(t *testing.T) {
	cfg := txn.DefaultConfig()
	cfg.Barrier = txn.NoFlush
	opts := Options{
		Seed:     73,
		Topology: Topology{Kind: TopoHDD},
		Txn:      &cfg,
	}
	rep := runSmall(t, opts, txnSpec("txn-hdd", 4))
	s := rep.TxnStats
	if s == nil || s.Evaluated == 0 {
		t.Fatalf("engine idle on HDD: %+v", s)
	}
	if s.Losses() != 0 {
		t.Fatalf("write-through HDD lost transactions: %s", s)
	}
}

// TestTxnGroupCommitRuns: the batched barrier makes progress, checkpoints
// truncate the log, and the recovery scans stay bounded by the log region.
func TestTxnGroupCommitRuns(t *testing.T) {
	rep := runSmall(t, txnOpts(74, txn.GroupCommit), txnSpec("txn-group", 5))
	s := rep.TxnStats
	if s == nil || s.Committed == 0 {
		t.Fatalf("group commit made no progress: %+v", s)
	}
	if s.RecoveryScans != int64(rep.Faults) {
		t.Fatalf("scans=%d, want one per fault (%d)", s.RecoveryScans, rep.Faults)
	}
	cfg := txn.DefaultConfig()
	if s.ScanPages > s.RecoveryScans*int64(cfg.LogPages) {
		t.Fatalf("scan length %d exceeds the log region bound", s.ScanPages)
	}
}

// TestTxnCheckpointTruncates: with an aggressive checkpoint cadence the
// engine truncates the log between faults — retired transactions leave
// the ledger (they are never judged) and checkpoints are counted.
func TestTxnCheckpointTruncates(t *testing.T) {
	cfg := txn.DefaultConfig()
	cfg.CheckpointEvery = 4
	opts := Options{Seed: 76, Profile: memberProfile(), Txn: &cfg}
	spec := ExperimentSpec{Name: "txn-ckpt", Faults: 4, RequestsPerFault: 60}
	rep := runSmall(t, opts, spec)
	s := rep.TxnStats
	if s == nil || s.Checkpoints == 0 {
		t.Fatalf("no checkpoints ran: %+v", s)
	}
	if s.Retired == 0 {
		t.Fatalf("checkpoints ran but nothing retired: %s", s)
	}
	if s.Retired+s.Evaluated+s.Unacked < s.Started-1 {
		// Every transaction ends up retired, judged, or in flight at a cut
		// (the last may still be active when the experiment ends).
		t.Fatalf("transactions leaked: started=%d retired=%d evaluated=%d unacked=%d",
			s.Started, s.Retired, s.Evaluated, s.Unacked)
	}
}

// TestTxnRejectsOpenLoop: the application layer is closed-loop by
// construction; an open-loop spec must be rejected up front.
func TestTxnRejectsOpenLoop(t *testing.T) {
	p, err := NewPlatform(txnOpts(75, txn.FlushPerCommit))
	if err != nil {
		t.Fatal(err)
	}
	spec := txnSpec("txn-open", 3)
	spec.Workload = workload.Spec{IOPS: 500}
	if _, err := NewRunner(p, spec); err == nil {
		t.Fatal("open-loop spec accepted in txn mode")
	}
}

// TestTxnMultiStreamRuns: several WAL streams over the volatile-cache SSD
// with a pipelined closed loop. Every report carries the full
// recovery-policy ablation: the primary TxnStats equals the hole-tolerant
// row, strict-scan never loses less, and the per-fault outcomes sum to
// the per-policy totals.
func TestTxnMultiStreamRuns(t *testing.T) {
	cfg := txn.DefaultConfig()
	cfg.Streams = 4
	cfg.Barrier = txn.NoFlush
	opts := Options{Seed: 78, Profile: memberProfile(), Txn: &cfg, Concurrency: 4}
	rep := runSmall(t, opts, txnSpec("txn-streams", 6))
	s := rep.TxnStats
	if s == nil || s.Committed == 0 || s.Evaluated == 0 {
		t.Fatalf("multi-stream engine idle: %+v", s)
	}
	if len(rep.TxnPolicies) != txn.NumRecoveryPolicies {
		t.Fatalf("ablation rows = %d, want %d", len(rep.TxnPolicies), txn.NumRecoveryPolicies)
	}
	ht, strict := rep.TxnPolicy(txn.HoleTolerant), rep.TxnPolicy(txn.StrictScan)
	if *s != ht {
		t.Fatalf("primary stats %+v != hole-tolerant row %+v", *s, ht)
	}
	if strict.Losses() < ht.Losses() {
		t.Fatalf("strict-scan lost %d < hole-tolerant %d", strict.Losses(), ht.Losses())
	}
	if rep.TxnUnreachable() < 0 {
		t.Fatalf("negative unreachable count %d", rep.TxnUnreachable())
	}
	if s.LostCommits == 0 {
		t.Fatalf("no-flush over 4 streams lost nothing: %s", s)
	}
	var sumHT, sumStrict int
	for _, c := range rep.TxnPerFault {
		sumHT += c.Policies[txn.HoleTolerant].Losses()
		sumStrict += c.Policies[txn.StrictScan].Losses()
		if c.Policies[txn.StrictScan].Losses() < c.Policies[txn.HoleTolerant].Losses() {
			t.Fatalf("cycle ablation inverted: %+v", c)
		}
	}
	if int64(sumHT) != ht.Losses() || int64(sumStrict) != strict.Losses() {
		t.Fatalf("per-fault losses (%d, %d) do not sum to totals (%d, %d)",
			sumHT, sumStrict, ht.Losses(), strict.Losses())
	}
}

// TestTxnStreamsDefaultEqualsOne: Streams left zero defaults to the
// single-stream engine — byte-identical reports, so the PR-3 "txn"
// figure verdicts are reproduced by the multi-stream code on identical
// schedules.
func TestTxnStreamsDefaultEqualsOne(t *testing.T) {
	run := func(streams int) string {
		cfg := txn.DefaultConfig()
		cfg.Streams = streams
		cfg.Barrier = txn.NoFlush
		opts := Options{Seed: 79, Profile: memberProfile(), Txn: &cfg}
		rep := runSmall(t, opts, txnSpec("txn-one", 5))
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := run(0), run(1); a != b {
		t.Fatalf("defaulted streams diverged from explicit Streams=1:\n%s\n%s", a, b)
	}
}

// TestTxnMultiStreamFlushStillLossless: the strict barrier keeps the WAL
// contract across concurrent streams too — and then even the pessimistic
// strict scan reports zero losses, because a flush-per-commit log has no
// acknowledged commit behind an unflushed tear.
func TestTxnMultiStreamFlushStillLossless(t *testing.T) {
	cfg := txn.DefaultConfig()
	cfg.Streams = 8
	opts := Options{Seed: 81, Profile: memberProfile(), Txn: &cfg, Concurrency: 8}
	rep := runSmall(t, opts, txnSpec("txn-streams-flush", 5))
	s := rep.TxnStats
	if s == nil || s.Evaluated == 0 {
		t.Fatalf("engine idle: %+v", s)
	}
	if s.Losses() != 0 {
		t.Fatalf("flush-per-commit over 8 streams broke the WAL contract: %s", s)
	}
	if strict := rep.TxnPolicy(txn.StrictScan); strict.Losses() != 0 {
		t.Fatalf("strict scan lost %d transactions under flush-per-commit: %s", strict.Losses(), strict)
	}
}
