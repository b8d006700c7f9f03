// Package ftl implements the flash translation layer of the simulated SSD:
// a page-level logical-to-physical mapping held in the controller's DRAM,
// a journal that persists mapping updates to flash in batches, detection of
// sequential streams as run extents (the paper: for sequential accesses the
// FTL "only keeps the first address in the mapping table"), an out-of-band
// (OOB) scan that recovers the tail of the active blocks after a crash,
// and greedy garbage collection with wear-aware block allocation.
//
// The crash behaviour is the heart of the model: mapping updates that were
// neither journaled nor recoverable by the OOB scan revert to the previous
// mapping, which is exactly the mechanism behind false write-acknowledge
// (FWA) failures that persist even when the volatile data cache is
// disabled.
package ftl

import (
	"container/heap"
	"errors"
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/flash"
	"powerfail/internal/sim"
)

// Config tunes the FTL policies.
type Config struct {
	// UserPages is the host-visible capacity in 4 KiB pages.
	UserPages int64
	// Lanes is the number of parallel allocation streams; the controller
	// maps lanes onto flash channels.
	Lanes int
	// GCLowBlocks triggers garbage collection when free blocks drop below
	// it; GCHighBlocks is the stop threshold.
	GCLowBlocks  int
	GCHighBlocks int
	// JournalBatchPages commits the journal when this many uncommitted
	// single-page records accumulate (closed runs count once per record).
	JournalBatchPages int
	// RunMaxPages closes an open sequential run at this length.
	RunMaxPages int
	// RunStaleAfter closes an open run that has not grown for this long.
	RunStaleAfter sim.Duration
	// ScanWindowPages bounds the OOB crash-recovery scan: the most recent
	// fully programmed pages of each lane's active block whose mapping can
	// be rebuilt without the journal.
	ScanWindowPages int
}

// DefaultConfig returns the mapping policy every stock drive profile runs.
func DefaultConfig(userPages int64, lanes int) Config {
	return Config{
		UserPages:         userPages,
		Lanes:             lanes,
		GCLowBlocks:       4,
		GCHighBlocks:      8,
		JournalBatchPages: 256,
		RunMaxPages:       384,
		RunStaleAfter:     250 * sim.Millisecond,
		ScanWindowPages:   64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.UserPages <= 0 {
		return fmt.Errorf("ftl: UserPages must be positive, got %d", c.UserPages)
	}
	if c.Lanes <= 0 {
		return fmt.Errorf("ftl: Lanes must be positive, got %d", c.Lanes)
	}
	if c.GCLowBlocks < 1 || c.GCHighBlocks < c.GCLowBlocks {
		return fmt.Errorf("ftl: bad GC thresholds low=%d high=%d", c.GCLowBlocks, c.GCHighBlocks)
	}
	if c.JournalBatchPages <= 0 || c.RunMaxPages <= 0 {
		return fmt.Errorf("ftl: journal/run sizes must be positive")
	}
	if c.ScanWindowPages < 0 {
		return fmt.Errorf("ftl: ScanWindowPages must be non-negative")
	}
	return nil
}

// Ticket reserves a physical page for a logical write. The controller
// programs the page on a channel and then calls CompleteWrite (host data)
// or CompleteMove (GC migration), or AbortWrite if power was lost first.
type Ticket struct {
	LPN  addr.LPN
	PPN  addr.PPN
	Lane int
}

// record is one uncommitted mapping update held in controller DRAM.
type record struct {
	lpn addr.LPN
	old addr.PPN // mapping before this update (InvalidPPN if none)
	new addr.PPN
}

type openRun struct {
	recs    []record
	minLPN  addr.LPN
	maxLPN  addr.LPN
	touched sim.Time
	lane    int
}

// runGapTolerance lets a sequential run absorb mapping updates that arrive
// slightly out of order: flush batches complete channel by channel, so a
// logically contiguous stream commits its mappings permuted within roughly
// one drain's worth of pages.
const runGapTolerance = 256

// freeHeap orders free blocks by erase count (dynamic wear levelling) then
// index for determinism.
type freeBlock struct {
	idx    int
	erases int
}
type freeHeap []freeBlock

func (h freeHeap) Len() int { return len(h) }
func (h freeHeap) Less(i, j int) bool {
	if h[i].erases != h[j].erases {
		return h[i].erases < h[j].erases
	}
	return h[i].idx < h[j].idx
}
func (h freeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *freeHeap) Push(x interface{}) { *h = append(*h, x.(freeBlock)) }
func (h *freeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	b := old[n-1]
	*h = old[:n-1]
	return b
}

// Stats counts FTL activity.
type Stats struct {
	WritesMapped   int64
	MovesCompleted int64
	MovesAborted   int64
	RunsClosed     int64
	Commits        int64
	CommittedRecs  int64
	Crashes        int64
	LostMappings   int64
	RecoveredByOOB int64
	GCCollections  int64
	WastedPages    int64
}

// CrashStats summarises one power-loss event.
type CrashStats struct {
	Uncommitted int // mapping records at risk
	Recovered   int // rebuilt by the OOB scan
	Lost        int // logical pages whose mapping reverted
}

// GCPlan describes one collection: migrate Moves out of Victim, erase it,
// then call GCFinish.
type GCPlan struct {
	Victim int
	Moves  []Move
}

// Move is a single valid-page migration.
type Move struct {
	LPN  addr.LPN
	From addr.PPN
}

// FTL is the translation layer state. It is a pure policy object: it has
// no timers of its own; the controller invokes it at the right simulated
// instants.
type FTL struct {
	cfg  Config
	chip *flash.Chip
	geo  flash.Geometry

	l2p map[addr.LPN]addr.PPN
	p2l map[addr.PPN]addr.LPN

	valid  []int // live pages per block
	pinned []int // uncommitted-journal references per block (GC must skip)

	free    freeHeap
	active  []int // active block per lane, -1 if none
	nextIdx []int // next page index to reserve per lane

	pending []record
	run     *openRun
	seqLast addr.LPN // last written lpn, for run detection

	gcVictim int // block mid-collection, -1 if none

	stats Stats
}

// New builds an FTL over the chip. All blocks start free.
func New(chip *flash.Chip, cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := chip.Geometry()
	minPages := cfg.UserPages + int64((cfg.GCHighBlocks+cfg.Lanes+2)*geo.PagesPerBlock)
	if geo.Pages() < minPages {
		return nil, fmt.Errorf("ftl: geometry %s too small for %d user pages plus reserves",
			geo, cfg.UserPages)
	}
	f := &FTL{
		cfg:      cfg,
		chip:     chip,
		geo:      geo,
		l2p:      make(map[addr.LPN]addr.PPN),
		p2l:      make(map[addr.PPN]addr.LPN),
		valid:    make([]int, geo.Blocks()),
		pinned:   make([]int, geo.Blocks()),
		active:   make([]int, cfg.Lanes),
		nextIdx:  make([]int, cfg.Lanes),
		seqLast:  -2,
		gcVictim: -1,
	}
	f.free = make(freeHeap, 0, geo.Blocks())
	for b := 0; b < geo.Blocks(); b++ {
		f.free = append(f.free, freeBlock{idx: b})
	}
	heap.Init(&f.free)
	for lane := range f.active {
		f.active[lane] = -1
	}
	return f, nil
}

// Config returns the FTL configuration.
func (f *FTL) Config() Config { return f.cfg }

// UserPages returns the host-visible capacity in pages.
func (f *FTL) UserPages() int64 { return f.cfg.UserPages }

// Stats returns a snapshot of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// FreeBlocks returns the number of blocks available for allocation.
func (f *FTL) FreeBlocks() int { return f.free.Len() }

// PendingRecords returns uncommitted journal records (excluding the open run).
func (f *FTL) PendingRecords() int { return len(f.pending) }

// OpenRunLen returns the length of the open sequential run.
func (f *FTL) OpenRunLen() int {
	if f.run == nil {
		return 0
	}
	return len(f.run.recs)
}

// Lookup translates a logical page. ok is false for never-written pages.
func (f *FTL) Lookup(lpn addr.LPN) (addr.PPN, bool) {
	p, ok := f.l2p[lpn]
	return p, ok
}

// ErrNoSpace reports allocation failure; it means GC could not keep up.
var ErrNoSpace = errors.New("ftl: out of free blocks")

// ErrBadLPN reports a logical address beyond the exported capacity.
var ErrBadLPN = errors.New("ftl: logical page out of range")

func (f *FTL) allocBlock() (int, error) {
	if f.free.Len() == 0 {
		return 0, ErrNoSpace
	}
	fb := heap.Pop(&f.free).(freeBlock)
	return fb.idx, nil
}

// BeginWrite reserves the next physical page for lpn. Sequential streams
// stay on one lane so their pages remain physically contiguous; other
// writes round-robin across lanes.
func (f *FTL) BeginWrite(lpn addr.LPN) (Ticket, error) {
	if lpn < 0 || int64(lpn) >= f.cfg.UserPages {
		return Ticket{}, ErrBadLPN
	}
	// Writes stripe round-robin across lanes regardless of sequentiality;
	// sequential runs are a *mapping* construct (lpn-contiguous), not a
	// physical-placement one, so sequential streams keep full channel
	// parallelism.
	lane := int(f.stats.WritesMapped) % f.cfg.Lanes
	blk := f.active[lane]
	if blk < 0 || f.nextIdx[lane] >= f.geo.PagesPerBlock {
		nb, err := f.allocBlock()
		if err != nil {
			return Ticket{}, err
		}
		f.active[lane] = nb
		f.nextIdx[lane] = 0
		blk = nb
	}
	ppn := f.geo.PPNOf(blk, f.nextIdx[lane])
	f.nextIdx[lane]++
	f.stats.WritesMapped++
	return Ticket{LPN: lpn, PPN: ppn, Lane: lane}, nil
}

// CompleteWrite applies a host write that finished programming: the
// mapping flips to the new page and the update joins the journal (as part
// of a sequential run when it extends one).
func (f *FTL) CompleteWrite(t Ticket, now sim.Time) {
	old := addr.InvalidPPN
	if cur, ok := f.l2p[t.LPN]; ok {
		old = cur
		f.valid[f.geo.BlockOf(cur)]--
		delete(f.p2l, cur)
		f.pinned[f.geo.BlockOf(cur)]++
	}
	f.l2p[t.LPN] = t.PPN
	f.p2l[t.PPN] = t.LPN
	f.valid[f.geo.BlockOf(t.PPN)]++

	rec := record{lpn: t.LPN, old: old, new: t.PPN}
	extends := f.run != nil && len(f.run.recs) < f.cfg.RunMaxPages &&
		t.LPN >= f.run.minLPN && t.LPN <= f.run.maxLPN+runGapTolerance
	if extends {
		f.run.recs = append(f.run.recs, rec)
		if t.LPN > f.run.maxLPN {
			f.run.maxLPN = t.LPN
		}
		f.run.touched = now
	} else {
		f.closeRun()
		f.run = &openRun{recs: []record{rec}, minLPN: t.LPN, maxLPN: t.LPN, touched: now, lane: t.Lane}
	}
	f.seqLast = t.LPN
}

// CompleteMove applies a GC migration if the logical page still points at
// the source; otherwise the destination page is wasted and the move is
// dropped (the host overwrote the data mid-migration).
func (f *FTL) CompleteMove(t Ticket, from addr.PPN, now sim.Time) bool {
	cur, ok := f.l2p[t.LPN]
	if !ok || cur != from {
		f.stats.MovesAborted++
		f.stats.WastedPages++
		return false
	}
	f.valid[f.geo.BlockOf(from)]--
	delete(f.p2l, from)
	f.pinned[f.geo.BlockOf(from)]++
	f.l2p[t.LPN] = t.PPN
	f.p2l[t.PPN] = t.LPN
	f.valid[f.geo.BlockOf(t.PPN)]++
	f.closeRun()
	f.pending = append(f.pending, record{lpn: t.LPN, old: from, new: t.PPN})
	f.stats.MovesCompleted++
	return true
}

// AbortWrite releases a ticket whose program never completed (power loss).
// The physical page is wasted; the mapping never changed.
func (f *FTL) AbortWrite(Ticket) { f.stats.WastedPages++ }

func (f *FTL) closeRun() {
	if f.run == nil {
		return
	}
	f.pending = append(f.pending, f.run.recs...)
	f.stats.RunsClosed++
	f.run = nil
}

// ForceCloseRun unconditionally moves the open run into the pending
// journal batch; the supercapacitor panic flush uses it before committing.
func (f *FTL) ForceCloseRun() { f.closeRun() }

// MaybeCloseRun closes the open run if it has grown stale or oversized.
// The controller calls this from its periodic journal tick.
func (f *FTL) MaybeCloseRun(now sim.Time) {
	if f.run == nil {
		return
	}
	if len(f.run.recs) >= f.cfg.RunMaxPages || now.Sub(f.run.touched) >= f.cfg.RunStaleAfter {
		f.closeRun()
	}
}

// CommitDue reports whether enough records are pending to force a commit.
func (f *FTL) CommitDue() bool { return len(f.pending) >= f.cfg.JournalBatchPages }

// CommitJournal makes every pending record durable (the controller charges
// the flash program time for the returned number of metadata pages). Open
// runs stay open and remain at risk.
func (f *FTL) CommitJournal() (metaPages, records int) {
	records = len(f.pending)
	if records == 0 {
		return 0, 0
	}
	const recordsPerMetaPage = 512
	metaPages = (records + recordsPerMetaPage - 1) / recordsPerMetaPage
	for _, r := range f.pending {
		if r.old != addr.InvalidPPN {
			f.pinned[f.geo.BlockOf(r.old)]--
		}
	}
	f.pending = f.pending[:0]
	f.stats.Commits++
	f.stats.CommittedRecs += int64(records)
	return metaPages, records
}

// scanSet returns the physical pages recoverable by the OOB scan: the most
// recent fully programmed pages of each lane's active block.
func (f *FTL) scanSet() map[addr.PPN]bool {
	set := make(map[addr.PPN]bool)
	if f.cfg.ScanWindowPages == 0 {
		return set
	}
	for lane, blk := range f.active {
		if blk < 0 {
			continue
		}
		top := f.chip.NextPage(blk)
		lo := top - f.cfg.ScanWindowPages
		if lo < 0 {
			lo = 0
		}
		for pi := lo; pi < top; pi++ {
			ppn := f.geo.PPNOf(blk, pi)
			if f.chip.FullyProgrammed(ppn) {
				set[ppn] = true
			}
		}
		_ = lane
	}
	return set
}

// Crash models power loss: every uncommitted mapping update is lost unless
// the OOB scan can rebuild it. Reverted logical pages point back at their
// previous physical pages (the FWA mechanism). The allocation pointers are
// re-synchronised with the chip, since reserved-but-unprogrammed pages are
// still erased and reusable.
func (f *FTL) Crash(now sim.Time) CrashStats {
	f.stats.Crashes++
	// Gather every at-risk record in application order.
	atRisk := make([]record, 0, len(f.pending)+f.OpenRunLen())
	atRisk = append(atRisk, f.pending...)
	if f.run != nil {
		atRisk = append(atRisk, f.run.recs...)
	}
	f.pending = f.pending[:0]
	f.run = nil

	cs := CrashStats{Uncommitted: len(atRisk)}
	if len(atRisk) > 0 {
		scan := f.scanSet()
		// Group records per logical page, preserving order.
		groups := make(map[addr.LPN][]record)
		order := make([]addr.LPN, 0, len(atRisk))
		for _, r := range atRisk {
			if _, seen := groups[r.lpn]; !seen {
				order = append(order, r.lpn)
			}
			groups[r.lpn] = append(groups[r.lpn], r)
		}
		for _, lpn := range order {
			g := groups[lpn]
			final := g[0].old
			recovered := false
			for i := len(g) - 1; i >= 0; i-- {
				if scan[g[i].new] {
					final = g[i].new
					recovered = true
					break
				}
			}
			if recovered {
				cs.Recovered++
				f.stats.RecoveredByOOB++
			}
			cur, hasCur := f.l2p[lpn]
			if hasCur && cur == final {
				continue // newest update survived
			}
			if hasCur {
				f.valid[f.geo.BlockOf(cur)]--
				delete(f.p2l, cur)
			}
			if final != addr.InvalidPPN {
				f.l2p[lpn] = final
				f.p2l[final] = lpn
				f.valid[f.geo.BlockOf(final)]++
			} else {
				delete(f.l2p, lpn)
			}
			cs.Lost++
			f.stats.LostMappings++
		}
	}
	for b := range f.pinned {
		f.pinned[b] = 0
	}
	// Re-synchronise allocation pointers with the chip: reserved pages
	// that were never programmed are still erased and must be reused,
	// because NAND programs strictly sequentially within a block.
	for lane, blk := range f.active {
		if blk < 0 {
			continue
		}
		f.nextIdx[lane] = f.chip.NextPage(blk)
	}
	return cs
}

// RecoverDuration estimates the mount time after a crash: journal replay
// plus the OOB scan reads.
func (f *FTL) RecoverDuration() sim.Duration {
	scanReads := f.cfg.ScanWindowPages * f.cfg.Lanes
	return 10*sim.Millisecond + sim.Duration(scanReads)*f.chip.Timing().ReadPage
}

// NeedGC reports whether free space is low enough to require collection.
func (f *FTL) NeedGC() bool { return f.free.Len() < f.cfg.GCLowBlocks }

// GCSatisfied reports whether collection may stop.
func (f *FTL) GCSatisfied() bool { return f.free.Len() >= f.cfg.GCHighBlocks }

// GCPlan picks a victim block (greedy: fewest valid pages, skipping free,
// active, and journal-pinned blocks) and lists the migrations required.
// It returns nil when no block is collectable.
func (f *FTL) GCPlan() *GCPlan {
	inFree := make(map[int]bool, f.free.Len())
	for _, fb := range f.free {
		inFree[fb.idx] = true
	}
	activeSet := make(map[int]bool, len(f.active))
	for _, b := range f.active {
		if b >= 0 {
			activeSet[b] = true
		}
	}
	best, bestValid := -1, 1<<30
	for b := 0; b < f.geo.Blocks(); b++ {
		if inFree[b] || activeSet[b] || f.pinned[b] > 0 || b == f.gcVictim {
			continue
		}
		if f.chip.NextPage(b) == 0 && f.chip.State(f.geo.PPNOf(b, 0)) == flash.PageErased {
			continue // untouched block
		}
		if f.valid[b] < bestValid {
			best, bestValid = b, f.valid[b]
		}
	}
	if best < 0 {
		return nil
	}
	plan := &GCPlan{Victim: best}
	for pi := 0; pi < f.geo.PagesPerBlock; pi++ {
		ppn := f.geo.PPNOf(best, pi)
		if lpn, ok := f.p2l[ppn]; ok {
			plan.Moves = append(plan.Moves, Move{LPN: lpn, From: ppn})
		}
	}
	f.gcVictim = best
	return plan
}

// GCFinish returns an erased victim to the free pool.
func (f *FTL) GCFinish(victim int) {
	if victim == f.gcVictim {
		f.gcVictim = -1
	}
	f.valid[victim] = 0
	heap.Push(&f.free, freeBlock{idx: victim, erases: f.chip.EraseCount(victim)})
	f.stats.GCCollections++
}

// GCAbort clears the in-flight victim marker after a crash interrupted a
// collection; the block will be picked again later.
func (f *FTL) GCAbort() { f.gcVictim = -1 }

// ValidPages returns the live-page count of a block (for tests).
func (f *FTL) ValidPages(block int) int { return f.valid[block] }

// CheckInvariants verifies internal consistency; tests call it after
// randomised operation sequences.
func (f *FTL) CheckInvariants() error {
	counts := make([]int, f.geo.Blocks())
	for lpn, ppn := range f.l2p {
		got, ok := f.p2l[ppn]
		if !ok || got != lpn {
			return fmt.Errorf("ftl: l2p/p2l mismatch at %v -> %v", lpn, ppn)
		}
		counts[f.geo.BlockOf(ppn)]++
	}
	if len(f.l2p) != len(f.p2l) {
		return fmt.Errorf("ftl: map size mismatch l2p=%d p2l=%d", len(f.l2p), len(f.p2l))
	}
	for b, want := range counts {
		if f.valid[b] != want {
			return fmt.Errorf("ftl: block %d valid=%d want %d", b, f.valid[b], want)
		}
	}
	return nil
}
