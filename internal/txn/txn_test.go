package txn

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// --- record codec ---

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecData, Seq: 7, Txn: 3, HomeLPN: 9001, Payload: 0xdeadbeef, Count: 2},
		{Type: RecData, Seq: 7, Txn: 3, HomeLPN: 9001, Payload: 0xdeadbeef, Count: 2, Stream: 5},
		{Type: RecCommit, Seq: 8, Txn: 3, Count: 4, Stream: 63},
		{Type: RecCheckpoint, Seq: 9, Count: 17, Stream: 1},
		{},
	}
	for _, r := range recs {
		b := EncodeRecord(r)
		if len(b) != RecordSize {
			t.Fatalf("encoded %v to %d bytes, want %d", r, len(b), RecordSize)
		}
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode(encode(%v)): %v", r, err)
		}
		if got != r {
			t.Fatalf("round trip changed the record: %v -> %v", r, got)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := EncodeRecord(Record{Type: RecCommit, Seq: 42, Txn: 7, Count: 3})

	if _, err := DecodeRecord(good[:RecordSize-1]); err != ErrTruncated {
		t.Fatalf("truncated: err = %v", err)
	}
	if _, err := DecodeRecord(nil); err != ErrTruncated {
		t.Fatalf("nil: err = %v", err)
	}

	// Any single bit flip must fail decoding: either the checksum breaks,
	// or the flipped bit is in the checksum itself.
	for i := 0; i < RecordSize; i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[i] ^= 1 << bit
			if _, err := DecodeRecord(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded cleanly", i, bit)
			}
		}
	}
}

func TestDecodeIgnoresTrailingBytes(t *testing.T) {
	r := Record{Type: RecData, Seq: 1, Txn: 2, HomeLPN: 3, Payload: 4, Count: 5}
	padded := append(EncodeRecord(r), make([]byte, 100)...)
	got, err := DecodeRecord(padded)
	if err != nil || got != r {
		t.Fatalf("padded decode: %v, %v", got, err)
	}
}

// --- engine harness ---
//
// The harness drives the engine synchronously against a two-tier content
// store: writes land in the volatile tier, flushes promote everything to
// the durable tier, and a simulated cut discards the volatile tier. Tests
// then hand-pick what "survived" to pin each oracle verdict class.

type harness struct {
	t        *testing.T
	e        *Engine
	volatile map[addr.LPN]content.Fingerprint
	durable  map[addr.LPN]content.Fingerprint
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	e, err := NewEngine(cfg, sim.New(), sim.NewRNG(99).Fork("txn"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:        t,
		e:        e,
		volatile: make(map[addr.LPN]content.Fingerprint),
		durable:  make(map[addr.LPN]content.Fingerprint),
	}
}

// step pulls one IO and completes it successfully.
func (h *harness) step() IO {
	h.t.Helper()
	io, ok := h.e.Next()
	if !ok {
		h.t.Fatal("engine stalled with zero outstanding IOs")
	}
	if io.Kind == IOFlush {
		for lpn, fp := range h.volatile {
			h.durable[lpn] = fp
		}
		h.volatile = make(map[addr.LPN]content.Fingerprint)
	} else {
		h.volatile[io.LPN] = io.Data.Page(0)
	}
	h.e.Done(io, nil)
	return io
}

func (h *harness) runUntilCommitted(n int64) {
	h.t.Helper()
	for i := 0; h.e.Stats().Committed < n; i++ {
		if i > 100000 {
			h.t.Fatalf("no progress toward %d commits", n)
		}
		h.step()
	}
}

// read returns what a post-cut read of lpn observes: the durable tier
// (the volatile tier died with the power).
func (h *harness) read(lpn addr.LPN) content.Fingerprint { return h.durable[lpn] }

// recover runs the oracle over the durable tier.
func (h *harness) recover() CycleOutcome {
	h.t.Helper()
	for _, lpn := range h.e.RecoveryReads() {
		h.e.Observe(lpn, h.read(lpn), nil)
	}
	return h.e.FinishRecovery()
}

// keep promotes one volatile page into the durable tier, simulating a
// page the device happened to persist before the cut.
func (h *harness) keep(lpn addr.LPN) {
	if fp, ok := h.volatile[lpn]; ok {
		h.durable[lpn] = fp
	}
}

// TestEngineFlushPerCommitAllIntact: with a flush behind every ACK, a cut
// at any commit boundary loses nothing.
func TestEngineFlushPerCommitAllIntact(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: FlushPerCommit, LogPages: 64, CheckpointEvery: 100}
	h := newHarness(t, cfg)
	h.runUntilCommitted(5)
	v := h.recover()
	if v.Evaluated != 5 || v.Intact != 5 {
		t.Fatalf("verdicts = %+v, want 5 intact of 5", v)
	}
	if got := h.e.Stats(); got.Losses() != 0 {
		t.Fatalf("losses: %s", got)
	}
}

// TestEngineNoFlushAllLost: nothing flushed, everything volatile — every
// acknowledged commit is a lost commit and none are out-of-order (no
// later commit survived either).
func TestEngineNoFlushAllLost(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: NoFlush, LogPages: 64, CheckpointEvery: 100}
	h := newHarness(t, cfg)
	h.runUntilCommitted(3)
	v := h.recover()
	if v.Evaluated != 3 || v.LostCommits != 3 || v.OutOfOrder != 0 {
		t.Fatalf("verdicts = %+v, want 3 lost commits", v)
	}
	if s := h.e.Stats(); s.OldestLostSeq == 0 {
		t.Fatalf("no oldest-lost sequence recorded: %s", s)
	}
}

// TestEngineOutOfOrderDurability: the device kept the third transaction's
// records but dropped the first two — the earlier acknowledged commits
// become out-of-order losses, the later one is intact.
func TestEngineOutOfOrderDurability(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: NoFlush, LogPages: 64, CheckpointEvery: 100}
	h := newHarness(t, cfg)
	h.runUntilCommitted(3)

	last := h.e.ledger[2]
	for _, p := range last.pages {
		h.keep(h.e.logSlotLPN(p.slot))
	}
	h.keep(h.e.logSlotLPN(last.commitSlot))

	v := h.recover()
	if v.Intact != 1 || v.OutOfOrder != 2 || v.LostCommits != 0 {
		t.Fatalf("verdicts = %+v, want 1 intact + 2 out-of-order", v)
	}
}

// TestEngineTornTransaction: the commit record survived but one data
// record did not (and its home page never landed) — atomicity is broken
// and the verdict is torn, not lost.
func TestEngineTornTransaction(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: NoFlush, LogPages: 64, CheckpointEvery: 100}
	h := newHarness(t, cfg)
	h.runUntilCommitted(1)

	tx := h.e.ledger[0]
	h.keep(h.e.logSlotLPN(tx.commitSlot))
	h.keep(h.e.logSlotLPN(tx.pages[0].slot)) // first data record survives, second does not

	v := h.recover()
	if v.Torn != 1 || v.LostCommits != 0 || v.Intact != 0 {
		t.Fatalf("verdicts = %+v, want exactly 1 torn", v)
	}
}

// TestEngineRedoFromHome: a data record died but the home write landed —
// the page is recoverable and the transaction stays intact.
func TestEngineRedoFromHome(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: NoFlush, LogPages: 64, CheckpointEvery: 100}
	h := newHarness(t, cfg)
	h.runUntilCommitted(1)
	// Drain the home writes of the acknowledged transaction.
	for h.e.Stats().HomeWrites < 2 {
		h.step()
	}

	tx := h.e.ledger[0]
	h.keep(h.e.logSlotLPN(tx.commitSlot))
	h.keep(h.e.logSlotLPN(tx.pages[0].slot))
	h.keep(tx.pages[1].homeLPN) // second page recovers from home instead of the log

	v := h.recover()
	if v.Intact != 1 {
		t.Fatalf("verdicts = %+v, want 1 intact via home recovery", v)
	}
}

// TestEngineGroupCommitAcksInBatches: commits acknowledge only when the
// shared flush lands, GroupEvery at a time; transactions committed but
// awaiting the group flush at a cut carry no promise (unacked).
func TestEngineGroupCommitAcksInBatches(t *testing.T) {
	cfg := Config{PagesPerTxn: 1, Barrier: GroupCommit, GroupEvery: 4, LogPages: 64, CheckpointEvery: 100}
	h := newHarness(t, cfg)
	h.runUntilCommitted(4)
	if got := h.e.Stats().Committed; got != 4 {
		t.Fatalf("committed %d mid-batch, want exactly the flushed group of 4", got)
	}
	if flushes := h.e.Stats().Flushes; flushes != 1 {
		t.Fatalf("flushes = %d, want 1 for the first group", flushes)
	}
	// Advance partway into the next group, then cut.
	for h.e.Stats().Started < 7 {
		h.step()
	}
	v := h.recover()
	if v.Unacked == 0 {
		t.Fatalf("no unacked transactions at a mid-group cut: %+v", v)
	}
	if v.Evaluated != 4 {
		t.Fatalf("evaluated %d, want the 4 acknowledged", v.Evaluated)
	}
}

// TestEngineSurvivesBarrierError: an errored commit-barrier flush outside
// a fault cycle (host-queue rejection, timeout) aborts the covered
// transaction instead of wedging the pipeline — the engine keeps
// committing afterwards and the aborted transaction is judged unacked.
func TestEngineSurvivesBarrierError(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: FlushPerCommit, LogPages: 64, CheckpointEvery: 100}
	h := newHarness(t, cfg)
	h.runUntilCommitted(1)

	// Fail the next barrier flush; everything else succeeds.
	failed := false
	for !failed {
		io, ok := h.e.Next()
		if !ok {
			t.Fatal("engine stalled before the flush")
		}
		if io.Kind == IOFlush {
			h.e.Done(io, ErrChecksum) // any error
			failed = true
		} else {
			h.volatile[io.LPN] = io.Data.Page(0)
			h.e.Done(io, nil)
		}
	}
	// The engine must still make progress to further commits.
	h.runUntilCommitted(3)
	v := h.recover()
	if v.Unacked != 1 {
		t.Fatalf("aborted transaction not judged unacked: %+v", v)
	}
	if v.Evaluated != 3 {
		t.Fatalf("evaluated %d, want the 3 acknowledged commits", v.Evaluated)
	}
}

// TestEngineRetriesFailedHomeWrite: a home write that errors is reissued
// until it lands, so the transaction can still retire at a checkpoint.
func TestEngineRetriesFailedHomeWrite(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: FlushPerCommit, LogPages: 64, CheckpointEvery: 1}
	h := newHarness(t, cfg)
	failedOnce := false
	for h.e.Stats().Checkpoints == 0 {
		io, ok := h.e.Next()
		if !ok {
			t.Fatal("engine stalled")
		}
		if io.Kind == IOHome && !failedOnce {
			failedOnce = true
			h.e.Done(io, ErrChecksum)
			continue
		}
		if io.Kind == IOFlush {
			for lpn, fp := range h.volatile {
				h.durable[lpn] = fp
			}
			h.volatile = make(map[addr.LPN]content.Fingerprint)
		} else {
			h.volatile[io.LPN] = io.Data.Page(0)
		}
		h.e.Done(io, nil)
	}
	if !failedOnce {
		t.Fatal("no home write was failed; test exercised nothing")
	}
	if got := h.e.Stats().Retired; got == 0 {
		t.Fatal("transaction with a retried home write never retired")
	}
	if len(h.e.ledger) != 0 {
		t.Fatalf("ledger holds %d transactions after checkpoint", len(h.e.ledger))
	}
}

// TestEngineCheckpointRetires: a checkpoint flushes, truncates the log
// and retires fully durable transactions so later faults never judge
// them; the scan high-water restarts from the checkpoint record.
func TestEngineCheckpointRetires(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: FlushPerCommit, LogPages: 64, CheckpointEvery: 2}
	h := newHarness(t, cfg)
	for h.e.Stats().Checkpoints == 0 {
		h.step()
	}
	s := h.e.Stats()
	if s.Retired < 2 {
		t.Fatalf("retired = %d after a checkpoint, want the checkpointed transactions", s.Retired)
	}
	if len(h.e.ledger) != 0 {
		t.Fatalf("ledger still holds %d transactions after truncation", len(h.e.ledger))
	}
	if cur := h.e.streams[0].cursor; cur > 2 {
		t.Fatalf("cursor = %d after truncation, want the checkpoint record slot region", cur)
	}
	// Everything was durable before truncation, so a cut right here must
	// evaluate nothing and lose nothing.
	v := h.recover()
	if v.Evaluated != 0 || v.LostCommits != 0 {
		t.Fatalf("post-checkpoint verdicts = %+v", v)
	}
}

// TestEngineCheckpointAppliesPartialGroupFirst: a forced checkpoint (log
// wrap) while a partial group awaits its barrier must flush and apply
// that group before truncating — the truncation reuses log slots, so it
// may only retire transactions whose home writes have landed. A cut
// right after the checkpoint must lose nothing.
func TestEngineCheckpointAppliesPartialGroupFirst(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: GroupCommit, GroupEvery: 100, LogPages: 12, CheckpointEvery: 1000}
	h := newHarness(t, cfg)
	for h.e.Stats().Checkpoints == 0 {
		h.step()
	}
	s := h.e.Stats()
	if s.Committed != 3 || s.Retired != 3 {
		t.Fatalf("committed=%d retired=%d after the forced checkpoint, want 3/3", s.Committed, s.Retired)
	}
	if len(h.e.ledger) != 0 {
		t.Fatalf("truncated with %d unapplied transactions in the ledger", len(h.e.ledger))
	}
	v := h.recover()
	if v.Evaluated != 0 || v.LostCommits != 0 || v.Torn != 0 {
		t.Fatalf("cut after checkpoint lost data: %+v", v)
	}
}

// TestEngineLogWrapForcesCheckpoint: when the append cursor approaches
// the end of the log region the engine checkpoints instead of starting a
// transaction, so the log never overflows its region.
func TestEngineLogWrapForcesCheckpoint(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: FlushPerCommit, LogPages: 8, CheckpointEvery: 1000}
	h := newHarness(t, cfg)
	var maxLPN addr.LPN
	for i := 0; i < 2000; i++ {
		io := h.step()
		if io.Kind != IOHome && io.LPN > maxLPN {
			maxLPN = io.LPN
		}
	}
	if h.e.Stats().Checkpoints == 0 {
		t.Fatal("log wrapped without a checkpoint")
	}
	if maxLPN >= addr.LPN(cfg.LogPages) {
		t.Fatalf("log write at LPN %d escaped the %d-page log region", maxLPN, cfg.LogPages)
	}
}

// TestEngineStaleSlotDetected: after a checkpoint truncates, the log
// slots still hold the previous generation's perfectly valid records on
// media. A post-truncation transaction whose writes die in the volatile
// cache must read as lost — the old-generation bytes beneath it can never
// be mistaken for the new commit.
func TestEngineStaleSlotDetected(t *testing.T) {
	cfg := Config{PagesPerTxn: 1, Barrier: NoFlush, LogPages: 16, CheckpointEvery: 1}
	h := newHarness(t, cfg)
	// Transaction 1 commits, and its checkpoint flushes generation-0
	// records into the durable tier, then truncates the log.
	for h.e.Stats().Checkpoints == 0 {
		h.step()
	}
	// Transaction 2 reuses the same slots in the new generation, but with
	// NoFlush nothing of it ever reaches the durable tier.
	h.runUntilCommitted(2)
	h.volatile = make(map[addr.LPN]content.Fingerprint) // cut
	v := h.recover()
	if v.Evaluated != 1 || v.LostCommits != 1 {
		t.Fatalf("stale old-generation slots misread as durable: %+v", v)
	}
}

// TestConfigValidation rejects impossible tunings.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{PagesPerTxn: -1, LogPages: 64, GroupEvery: 1, CheckpointEvery: 1},
		{PagesPerTxn: 4, LogPages: 5, GroupEvery: 1, CheckpointEvery: 1},
		{PagesPerTxn: 4, LogPages: 64, GroupEvery: -2, CheckpointEvery: 1},
		{PagesPerTxn: 4, LogPages: 64, GroupEvery: 1, CheckpointEvery: -3},
		{PagesPerTxn: 4, LogPages: 64, GroupEvery: 1, CheckpointEvery: 1, Barrier: Barrier(9)},
		{PagesPerTxn: 4, LogPages: 64, GroupEvery: 1, CheckpointEvery: 1, Streams: -1},
		{PagesPerTxn: 4, LogPages: 64, GroupEvery: 1, CheckpointEvery: 1, Streams: MaxStreams + 1},
		// 8 streams over 64 pages leave 8-slot partitions: too small for a
		// 63-page transaction plus commit and checkpoint records.
		{PagesPerTxn: 63, LogPages: 512, GroupEvery: 1, CheckpointEvery: 1, Streams: 8},
		// Exactly PagesPerTxn+2 slots per partition livelocks in a
		// checkpoint storm: a fresh generation starts with a checkpoint
		// record in slot 0, leaving one slot too few for a transaction.
		{PagesPerTxn: 4, LogPages: 6, GroupEvery: 1, CheckpointEvery: 1},
		{PagesPerTxn: 4, LogPages: 12, GroupEvery: 1, CheckpointEvery: 1, Streams: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if _, err := NewEngine(DefaultConfig(), sim.New(), sim.NewRNG(1), 100); err == nil {
		t.Error("engine accepted a device smaller than its log region")
	}
}

// TestMinimalPartitionMakesProgress: the smallest partition Validate
// accepts (PagesPerTxn+3 slots) keeps committing across generations —
// one transaction per checkpoint, but never a livelock.
func TestMinimalPartitionMakesProgress(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: FlushPerCommit, LogPages: 5, GroupEvery: 1, CheckpointEvery: 1000}
	h := newHarness(t, cfg)
	h.runUntilCommitted(6)
	s := h.e.Stats()
	if s.Checkpoints < 4 {
		t.Fatalf("checkpoints = %d after 6 commits in a minimal partition, want one per transaction", s.Checkpoints)
	}
}

// --- multi-stream WAL ---

// TestMultiStreamPartitionsAndInterleaving: with several streams each
// log/commit record lands in its stream's partition, the on-media record
// carries the stream id, every stream makes progress, and the issue order
// interleaves streams rather than draining one pipeline at a time.
func TestMultiStreamPartitionsAndInterleaving(t *testing.T) {
	cfg := Config{Streams: 4, PagesPerTxn: 2, Barrier: NoFlush, LogPages: 64, CheckpointEvery: 1000}
	h := newHarness(t, cfg)
	per := h.e.perStream
	if per != 16 {
		t.Fatalf("partition size = %d, want 16", per)
	}
	var order []int // partition of each log-region write, in issue order
	for len(order) < 40 {
		io := h.step()
		if io.Kind == IOLog || io.Kind == IOCommit || io.Kind == IOCheckpoint {
			order = append(order, int(io.LPN)/per)
		}
	}
	seen := map[int]bool{}
	for _, p := range order {
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only partitions %v saw traffic, want all 4", seen)
	}
	// The first few writes must already interleave streams: a round-robin
	// engine never issues a whole transaction back to back while other
	// streams are idle.
	head := map[int]bool{}
	for _, p := range order[:4] {
		head[p] = true
	}
	if len(head) < 2 {
		t.Fatalf("first 4 log writes all on partitions %v — streams do not interleave", head)
	}
	// On-media records carry the owning stream id, and sequence spaces
	// are per stream (every stream starts its own space at 0).
	for abs, hist := range h.e.slots {
		rec, err := DecodeRecord(hist[0].bytes)
		if err != nil {
			t.Fatalf("slot %d: %v", abs, err)
		}
		if got, want := int(rec.Stream), abs/per; got != want {
			t.Fatalf("slot %d: record stream %d, want partition owner %d", abs, got, want)
		}
	}
	for i, st := range h.e.streams {
		if st.seq == 0 {
			t.Fatalf("stream %d issued no records", i)
		}
	}
}

// TestMultiStreamGroupCommitBatchesAcrossStreams: the group-commit batch
// fills with commits from different streams, so one shared flush
// acknowledges transactions across stream boundaries.
func TestMultiStreamGroupCommitBatchesAcrossStreams(t *testing.T) {
	cfg := Config{Streams: 4, PagesPerTxn: 1, Barrier: GroupCommit, GroupEvery: 4, LogPages: 64, CheckpointEvery: 1000}
	h := newHarness(t, cfg)
	for h.e.Stats().Flushes == 0 {
		io, ok := h.e.Next()
		if !ok {
			t.Fatal("engine stalled before the first group flush")
		}
		if io.Kind == IOFlush {
			streams := map[int]bool{}
			for _, tx := range io.cover {
				streams[tx.Stream()] = true
			}
			if len(io.cover) != 4 || len(streams) < 2 {
				t.Fatalf("group flush covers %d txns on streams %v, want a 4-txn batch across streams",
					len(io.cover), streams)
			}
		}
		if io.Kind == IOFlush {
			for lpn, fp := range h.volatile {
				h.durable[lpn] = fp
			}
			h.volatile = make(map[addr.LPN]content.Fingerprint)
		} else {
			h.volatile[io.LPN] = io.Data.Page(0)
		}
		h.e.Done(io, nil)
	}
	if got := h.e.Stats().Committed; got != 4 {
		t.Fatalf("committed %d after the first group flush, want 4", got)
	}
}

// TestMultiStreamOutOfOrderSpansStreams: only the latest acknowledged
// transaction survives the cut; every earlier acknowledgement — which
// with round-robin streams lives on other streams too — becomes an
// out-of-order loss against that cross-stream witness.
func TestMultiStreamOutOfOrderSpansStreams(t *testing.T) {
	cfg := Config{Streams: 2, PagesPerTxn: 1, Barrier: NoFlush, LogPages: 64, CheckpointEvery: 1000}
	h := newHarness(t, cfg)
	h.runUntilCommitted(4)
	var last *Txn
	for _, tx := range h.e.ledger {
		if tx.acked && (last == nil || tx.ackIdx > last.ackIdx) {
			last = tx
		}
	}
	for _, p := range last.pages {
		h.keep(h.e.logSlotLPN(p.slot))
	}
	h.keep(h.e.logSlotLPN(last.commitSlot))

	crossStream := false
	for _, tx := range h.e.ledger {
		if tx.acked && tx != last && tx.stream != last.stream {
			crossStream = true
		}
	}
	if !crossStream {
		t.Fatal("all acked transactions on one stream — round-robin broken")
	}
	v := h.recover()
	if v.Intact != 1 || v.OutOfOrder != 3 || v.LostCommits != 0 {
		t.Fatalf("verdicts = %+v, want 1 intact + 3 out-of-order across streams", v.CycleVerdicts)
	}
}

// TestMultiStreamCheckpointTruncatesPerStream: partitions fill and
// truncate independently; no log write ever escapes its partition and
// retired transactions leave the ledger.
func TestMultiStreamCheckpointTruncatesPerStream(t *testing.T) {
	cfg := Config{Streams: 2, PagesPerTxn: 2, Barrier: FlushPerCommit, LogPages: 24, CheckpointEvery: 1000}
	h := newHarness(t, cfg)
	for i := 0; i < 4000 && h.e.Stats().Checkpoints < 4; i++ {
		io := h.step()
		if io.Kind == IOLog || io.Kind == IOCommit || io.Kind == IOCheckpoint {
			if int(io.LPN) >= cfg.LogPages {
				t.Fatalf("log write at LPN %d escaped the %d-page log region", io.LPN, cfg.LogPages)
			}
		}
	}
	s := h.e.Stats()
	if s.Checkpoints < 4 {
		t.Fatalf("checkpoints = %d, want both partitions truncating repeatedly", s.Checkpoints)
	}
	if s.Retired == 0 {
		t.Fatal("checkpoints ran but nothing retired")
	}
	for i, st := range h.e.streams {
		if st.cursor > st.size {
			t.Fatalf("stream %d cursor %d beyond its %d-slot partition", i, st.cursor, st.size)
		}
	}
}

// --- recovery-policy ablation ---

// TestStrictScanStopsAtFirstTear: the device kept only the LAST
// transaction's records. Hole-tolerant replay reaches them (1 intact, 2
// out-of-order); the strict scan hits the torn first slot and stops, so
// even the durable commit is unreachable — 3 lost commits, and the
// difference is exactly the durable-but-unreachable count.
func TestStrictScanStopsAtFirstTear(t *testing.T) {
	cfg := Config{PagesPerTxn: 2, Barrier: NoFlush, LogPages: 64, CheckpointEvery: 100}
	h := newHarness(t, cfg)
	h.runUntilCommitted(3)

	last := h.e.ledger[2]
	for _, p := range last.pages {
		h.keep(h.e.logSlotLPN(p.slot))
	}
	h.keep(h.e.logSlotLPN(last.commitSlot))

	out := h.recover()
	ht, st := out.Policies[HoleTolerant], out.Policies[StrictScan]
	if ht.Intact != 1 || ht.OutOfOrder != 2 {
		t.Fatalf("hole-tolerant = %+v, want 1 intact + 2 out-of-order", ht)
	}
	if st.LostCommits != 3 || st.Intact != 0 || st.OutOfOrder != 0 {
		t.Fatalf("strict-scan = %+v, want 3 lost commits (survivor unreachable past the tear)", st)
	}
	if st.ScanPages >= ht.ScanPages {
		t.Fatalf("strict scan read %d pages, hole-tolerant %d — strict must stop early", st.ScanPages, ht.ScanPages)
	}
	if got := out.Unreachable(); got != 1 {
		t.Fatalf("unreachable = %d, want the 1 durable-but-unreachable commit", got)
	}
	// The primary policy defaults to hole-tolerant: headline == ablation row.
	if out.CycleVerdicts != ht {
		t.Fatalf("primary verdicts %+v != hole-tolerant %+v", out.CycleVerdicts, ht)
	}
}

// TestStrictNeverBeatsHoleTolerant: under arbitrary survival patterns the
// strict scan's durable sets are subsets of the hole-tolerant ones, so it
// can only lose more. Sweep a range of keep patterns and check the
// invariant plus the verdict partition under both policies, and that the
// headline verdicts and Stats() are the hole-tolerant ones.
func TestStrictNeverBeatsHoleTolerant(t *testing.T) {
	for pattern := 0; pattern < 32; pattern++ {
		cfg := Config{PagesPerTxn: 2, Barrier: NoFlush, LogPages: 64, CheckpointEvery: 100}
		h := newHarness(t, cfg)
		h.runUntilCommitted(5)
		i := 0
		for _, tx := range h.e.ledger {
			for _, p := range tx.pages {
				if (pattern>>(i%5))&1 == 1 {
					h.keep(h.e.logSlotLPN(p.slot))
				}
				i++
			}
			if (pattern>>(i%5))&1 == 1 {
				h.keep(h.e.logSlotLPN(tx.commitSlot))
			}
			i++
		}
		out := h.recover()
		ht, st := out.Policies[HoleTolerant], out.Policies[StrictScan]
		if out.CycleVerdicts != ht {
			t.Fatalf("pattern %d: headline %+v != hole-tolerant %+v", pattern, out.CycleVerdicts, ht)
		}
		s, strict := h.e.Stats(), h.e.StatsFor(StrictScan)
		if s.Policy != HoleTolerant || int(s.LostCommits) != ht.LostCommits || int(strict.LostCommits) != st.LostCommits {
			t.Fatalf("pattern %d: Stats() = %s, StatsFor(StrictScan) = %s", pattern, s, strict)
		}
		if strict.Committed != s.Committed || strict.Flushes != s.Flushes {
			t.Fatalf("pattern %d: engine counters diverged between policy views", pattern)
		}
		if st.Losses() < ht.Losses() {
			t.Fatalf("pattern %d: strict losses %d < hole-tolerant %d", pattern, st.Losses(), ht.Losses())
		}
		if st.ScanPages > ht.ScanPages {
			t.Fatalf("pattern %d: strict scanned %d > hole-tolerant %d pages", pattern, st.ScanPages, ht.ScanPages)
		}
		for _, v := range []CycleVerdicts{ht, st} {
			if v.Intact+v.LostCommits+v.Torn+v.OutOfOrder != v.Evaluated {
				t.Fatalf("pattern %d: verdicts %+v do not partition evaluated", pattern, v)
			}
		}
	}
}

// TestGroupCommitCoalescesBackToBackBatches: with enough streams, two
// full group batches can form between consecutive Next calls (all the
// commit records complete before the runner issues the wanted flush).
// The second batch must join the pending flush cover, not replace it —
// otherwise the first batch stays committed-but-unacked forever.
func TestGroupCommitCoalescesBackToBackBatches(t *testing.T) {
	cfg := Config{Streams: 4, PagesPerTxn: 1, Barrier: GroupCommit, GroupEvery: 2, LogPages: 64, CheckpointEvery: 1000}
	h := newHarness(t, cfg)
	// Batch-synchronous driving: pull every issuable IO first, then
	// complete them all, so commit completions cluster exactly like a
	// pipelined closed loop under think-time.
	for round := 0; round < 12; round++ {
		var batch []IO
		for {
			io, ok := h.e.Next()
			if !ok {
				break
			}
			batch = append(batch, io)
		}
		if len(batch) == 0 {
			t.Fatalf("round %d: engine stalled", round)
		}
		for _, io := range batch {
			if io.Kind == IOFlush {
				for lpn, fp := range h.volatile {
					h.durable[lpn] = fp
				}
				h.volatile = make(map[addr.LPN]content.Fingerprint)
			} else {
				h.volatile[io.LPN] = io.Data.Page(0)
			}
			h.e.Done(io, nil)
		}
	}
	stranded := 0
	for _, tx := range h.e.ledger {
		if tx.committed && !tx.acked && !tx.aborted && !h.e.inFlush && !h.e.flushWanted {
			stranded++
		}
	}
	// At most a partial group may legitimately wait for its barrier.
	if inQ := len(h.e.waiters); stranded > inQ {
		t.Fatalf("%d committed transactions stranded un-acked (only %d awaiting a group)", stranded, inQ)
	}
	if got := h.e.Stats().Committed; got < 8 {
		t.Fatalf("committed %d over 12 batch rounds, want the batches to keep acking", got)
	}
}
