package ssd

import (
	"errors"
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/dram"
	"powerfail/internal/flash"
	"powerfail/internal/ftl"
	"powerfail/internal/power"
	"powerfail/internal/sim"
)

// State is the device lifecycle state as seen across the power cycle.
type State int

// Device states. StateUnavailable means the host link dropped (rail below
// the brownout voltage) while the controller core still runs off the
// decaying rail; StateDead means the controller halted too.
const (
	StateReady State = iota
	StateUnavailable
	StateDead
	StateRecovering
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateUnavailable:
		return "unavailable"
	case StateDead:
		return "dead"
	case StateRecovering:
		return "recovering"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors surfaced to the host.
var (
	ErrUnavailable = errors.New("ssd: device unavailable")
	ErrNoSpace     = errors.New("ssd: no space")
)

// Stats counts device activity across the experiment.
type Stats struct {
	HostReads   int64
	HostWrites  int64
	HostFlushes int64
	HostErrors  int64

	PagesProgrammed int64
	PagesRead       int64
	PagesFlushed    int64
	CacheStalls     int64

	Brownouts           int64
	Deaths              int64
	Recoveries          int64
	PanicFlushes        int64
	InterruptedPrograms int64
	InterruptedErases   int64
	DirtyPagesLost      int64
	MappingsLost        int64
}

type command struct {
	op       blockdev.Op
	lpn      addr.LPN
	pages    int
	data     content.Data
	done     func(error, content.Data)
	result   []content.Fingerprint
	parts    int
	finished bool
}

// Device is the SSD under test.
type Device struct {
	k    *sim.Kernel
	r    *sim.RNG
	prof Profile

	chip  *flash.Chip
	ftlm  *ftl.FTL
	cache *dram.Cache // nil when the internal cache is disabled

	state    State
	channels []*channel

	linkBusyUntil sim.Time
	outstanding   []*command
	flushWaiters  []*command

	flushTimer    sim.Timer
	journalTimer  sim.Timer
	recoveryTimer sim.Timer
	metaInFlight  bool
	gcActive      bool

	hasDirtySince  bool
	firstDirtyAt   sim.Time
	readyListeners []func()
	downListeners  []func()

	stats Stats
}

// New builds the device over a PSU rail and registers its voltage watches
// and electrical load. The device starts Ready (powered).
func New(k *sim.Kernel, r *sim.RNG, prof Profile, psu *power.PSU) (*Device, error) {
	prof = prof.Normalize()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	chip, err := flash.New(prof.ChipConfig(), r.Fork("chip"))
	if err != nil {
		return nil, err
	}
	f, err := ftl.New(chip, prof.FTLConfig())
	if err != nil {
		return nil, err
	}
	var cache *dram.Cache
	if prof.HasCache {
		cache, err = dram.New(prof.CachePages())
		if err != nil {
			return nil, err
		}
	}
	d := &Device{
		k:     k,
		r:     r.Fork("device"),
		prof:  prof,
		chip:  chip,
		ftlm:  f,
		cache: cache,
		state: StateReady,
	}
	d.channels = make([]*channel, prof.Channels)
	for i := range d.channels {
		d.channels[i] = &channel{idx: i}
	}
	if psu != nil {
		psu.Connect("ssd-"+prof.Name, LoadOhms)
		psu.NotifyBelow(brownoutVolts, d.onBrownout)
		psu.NotifyBelow(dieVolts, d.onDie)
		psu.NotifyAbove(brownoutVolts+0.25, d.onPowerGood)
	}
	d.startJournalTick()
	return d, nil
}

// Name implements blockdev.Drive.
func (d *Device) Name() string { return d.prof.Name }

// UserPages implements blockdev.Drive.
func (d *Device) UserPages() int64 { return d.prof.UserPages() }

// Ready implements blockdev.Drive: the drive answers the host.
func (d *Device) Ready() bool { return d.state == StateReady }

// State returns the lifecycle state.
func (d *Device) State() State { return d.state }

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats { return d.stats }

// Chip exposes the NAND model for tests and tools.
func (d *Device) Chip() *flash.Chip { return d.chip }

// FTL exposes the translation layer for tests and tools.
func (d *Device) FTL() *ftl.FTL { return d.ftlm }

// DirtyCachePages reports acknowledged-but-unflushed pages.
func (d *Device) DirtyCachePages() int {
	if d.cache == nil {
		return 0
	}
	return d.cache.DirtyPages()
}

// CacheStats exposes cache counters (zero value when disabled).
func (d *Device) CacheStats() dram.Stats {
	if d.cache == nil {
		return dram.Stats{}
	}
	return d.cache.Stats()
}

// NotifyReady registers fn to run every time the device transitions to
// Ready after a recovery.
func (d *Device) NotifyReady(fn func()) { d.readyListeners = append(d.readyListeners, fn) }

// NotifyDown registers fn to run every time the host link drops (rail
// below the brownout voltage).
func (d *Device) NotifyDown(fn func()) { d.downListeners = append(d.downListeners, fn) }

// perPageProg is the effective channel occupancy of one page program
// (multi-die pipelining folded into a bandwidth figure).
func (d *Device) perPageProg() sim.Duration {
	return sim.Duration(float64(addr.PageBytes) / d.prof.ChanProgBytesPerSec * 1e9)
}

// ErrOutOfRange reports an access beyond the drive's exported capacity.
var ErrOutOfRange = errors.New("ssd: address beyond device capacity")

// Submit implements blockdev.Device.
func (d *Device) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	cmd := &command{op: op, lpn: lpn, pages: pages, data: data, done: done}
	if lpn < 0 || int64(lpn)+int64(pages) > d.prof.UserPages() {
		d.stats.HostErrors++
		d.k.After(failFast, func() { done(ErrOutOfRange, content.Data{}) })
		return
	}
	if d.state != StateReady {
		d.stats.HostErrors++
		d.k.After(failFast, func() { done(ErrUnavailable, content.Data{}) })
		return
	}
	d.outstanding = append(d.outstanding, cmd)
	switch op {
	case blockdev.OpWrite:
		d.startWrite(cmd)
	case blockdev.OpRead:
		d.startRead(cmd)
	case blockdev.OpFlush:
		d.startFlush(cmd)
	default:
		d.completeCmd(cmd, fmt.Errorf("ssd: unknown op %v", op))
	}
}

func (d *Device) completeCmd(cmd *command, err error) {
	if cmd.finished {
		return
	}
	cmd.finished = true
	for i, c := range d.outstanding {
		if c == cmd {
			d.outstanding = append(d.outstanding[:i], d.outstanding[i+1:]...)
			break
		}
	}
	if err != nil {
		d.stats.HostErrors++
		cmd.done(err, content.Data{})
		return
	}
	switch cmd.op {
	case blockdev.OpRead:
		d.stats.HostReads++
		cmd.done(nil, content.Gather(cmd.pages, func(i int) content.Fingerprint { return cmd.result[i] }))
	case blockdev.OpWrite:
		d.stats.HostWrites++
		cmd.done(nil, content.Data{})
	default:
		d.stats.HostFlushes++
		cmd.done(nil, content.Data{})
	}
}

func (d *Device) linkTransfer(bytes int64, fn func()) {
	start := d.k.Now()
	if d.linkBusyUntil > start {
		start = d.linkBusyUntil
	}
	dur := cmdOverhead + sim.Duration(float64(bytes)/linkBytesPerSec*1e9)
	d.linkBusyUntil = start.Add(dur)
	d.k.At(d.linkBusyUntil, fn)
}

// --- write path ---

func (d *Device) startWrite(cmd *command) {
	d.linkTransfer(int64(cmd.pages)*addr.PageBytes, func() {
		if cmd.finished {
			return
		}
		if d.cache == nil {
			d.writeThrough(cmd)
			return
		}
		d.insertWrite(cmd, 0)
	})
}

// insertWrite places write pages into the volatile cache, stalling (write
// backpressure) while the dirty population is at its cap. The ACK that
// completes the command fires as soon as the last page is cached: this is
// the false-write-acknowledge window the paper measures.
func (d *Device) insertWrite(cmd *command, from int) {
	if cmd.finished {
		return
	}
	for i := from; i < cmd.pages; i++ {
		if d.cache.DirtyPages() >= dirtyCapPages || !d.cache.Write(cmd.lpn+addr.LPN(i), cmd.data.Page(i)) {
			// Write backpressure: drain immediately and retry once the
			// flusher has retired pages.
			d.stats.CacheStalls++
			d.noteDirty()
			d.drainCache()
			idx := i
			d.k.After(200*sim.Microsecond, func() { d.insertWrite(cmd, idx) })
			return
		}
	}
	d.noteDirty()
	d.completeCmd(cmd, nil)
	d.scheduleFlushTick()
}

func (d *Device) noteDirty() {
	if d.cache != nil && d.cache.QueuedDirty() > 0 && !d.hasDirtySince {
		d.hasDirtySince = true
		d.firstDirtyAt = d.k.Now()
	}
}

// writeThrough programs pages synchronously (internal cache disabled); the
// ACK waits for every program to finish.
func (d *Device) writeThrough(cmd *command) {
	groups := make([][]pageOp, len(d.channels))
	for i := 0; i < cmd.pages; i++ {
		t, err := d.ftlm.BeginWrite(cmd.lpn + addr.LPN(i))
		if err != nil {
			d.completeCmd(cmd, ErrNoSpace)
			return
		}
		ch := d.channelOf(t.PPN)
		groups[ch] = append(groups[ch], pageOp{ppn: t.PPN, fp: cmd.data.Page(i), lpn: t.LPN, ticket: t})
	}
	per := d.perPageProg()
	for ch, ops := range groups {
		if len(ops) == 0 {
			continue
		}
		cmd.parts++
		d.enqueue(ch, &chItem{kind: itemProgram, ops: ops, perPage: per, onDone: func() {
			cmd.parts--
			if cmd.parts == 0 {
				d.completeCmd(cmd, nil)
			}
			d.afterBackgroundWork()
		}})
	}
	if cmd.parts == 0 {
		d.completeCmd(cmd, nil)
	}
}

// --- read path ---

func (d *Device) startRead(cmd *command) {
	d.linkTransfer(64, func() { // command frame only
		if cmd.finished {
			return
		}
		d.resolveRead(cmd)
	})
}

func (d *Device) resolveRead(cmd *command) {
	cmd.result = make([]content.Fingerprint, cmd.pages)
	groups := make([][]pageOp, len(d.channels))
	flashPages := 0
	for i := 0; i < cmd.pages; i++ {
		lpn := cmd.lpn + addr.LPN(i)
		if d.cache != nil {
			if fp, ok := d.cache.Read(lpn); ok {
				cmd.result[i] = fp
				continue
			}
		}
		ppn, ok := d.ftlm.Lookup(lpn)
		if !ok {
			cmd.result[i] = content.Zero
			continue
		}
		ch := d.channelOf(ppn)
		groups[ch] = append(groups[ch], pageOp{ppn: ppn, rdIdx: i, rdDst: cmd.result})
		flashPages++
	}
	if flashPages == 0 {
		d.respondRead(cmd)
		return
	}
	for ch, ops := range groups {
		if len(ops) == 0 {
			continue
		}
		cmd.parts++
		d.enqueue(ch, &chItem{kind: itemRead, ops: ops, perPage: d.chip.Timing().ReadPage, onDone: func() {
			cmd.parts--
			if cmd.parts == 0 {
				d.respondRead(cmd)
			}
		}})
	}
}

func (d *Device) respondRead(cmd *command) {
	if cmd.finished {
		return
	}
	d.linkTransfer(int64(cmd.pages)*addr.PageBytes, func() {
		d.completeCmd(cmd, nil)
	})
}

// --- flush command ---

func (d *Device) startFlush(cmd *command) {
	d.k.After(cmdOverhead, func() {
		if cmd.finished {
			return
		}
		if d.cache == nil || d.cache.DirtyPages() == 0 {
			d.completeCmd(cmd, nil)
			return
		}
		d.flushWaiters = append(d.flushWaiters, cmd)
		d.drainCache()
	})
}

// --- background flusher ---

func (d *Device) scheduleFlushTick() {
	if d.cache == nil || d.flushTimer.Pending() || d.state == StateDead || d.state == StateRecovering {
		return
	}
	d.flushTimer = d.k.After(flushTick, d.flushTick)
}

func (d *Device) flushTick() {
	d.flushTimer = sim.Timer{}
	if d.cache == nil || d.state == StateDead || d.state == StateRecovering {
		return
	}
	queued := d.cache.QueuedDirty()
	if queued == 0 {
		d.hasDirtySince = false
		return
	}
	idle := d.hasDirtySince && d.k.Now().Sub(d.firstDirtyAt) >= d.prof.FlushIdleAge
	if queued >= flushHighPages || idle || len(d.flushWaiters) > 0 {
		d.drainCache()
	}
	d.scheduleFlushTick()
}

// drainCache pops every queued dirty page and spreads program batches over
// the channels.
func (d *Device) drainCache() {
	if d.cache == nil {
		return
	}
	for {
		ents := d.cache.PopDirty(flushBatchPages)
		if len(ents) == 0 {
			break
		}
		groups := make([][]pageOp, len(d.channels))
		for _, e := range ents {
			t, err := d.ftlm.BeginWrite(e.LPN)
			if err != nil {
				d.cache.FlushFailed(e.LPN, e.Seq)
				continue
			}
			ch := d.channelOf(t.PPN)
			groups[ch] = append(groups[ch], pageOp{ppn: t.PPN, fp: e.FP, lpn: e.LPN, seq: e.Seq, ticket: t})
		}
		per := d.perPageProg()
		for ch, ops := range groups {
			if len(ops) == 0 {
				continue
			}
			n := int64(len(ops))
			d.enqueue(ch, &chItem{kind: itemProgram, ops: ops, perPage: per, onDone: func() {
				d.stats.PagesFlushed += n
				d.afterBackgroundWork()
			}})
		}
	}
	d.hasDirtySince = false
}

// afterBackgroundWork runs the controller's housekeeping after any program
// batch completes: flush-command waiters, journal pressure, GC pressure,
// and rescheduling the flusher.
func (d *Device) afterBackgroundWork() {
	if d.state == StateDead || d.state == StateRecovering {
		return
	}
	if d.cache != nil && len(d.flushWaiters) > 0 && d.cache.DirtyPages() == 0 {
		waiters := d.flushWaiters
		d.flushWaiters = nil
		for _, w := range waiters {
			d.completeCmd(w, nil)
		}
	}
	if d.ftlm.CommitDue() && !d.metaInFlight {
		d.startMetaCommit()
	}
	d.checkGC()
	if d.cache != nil && d.cache.QueuedDirty() > 0 {
		d.noteDirty()
		d.scheduleFlushTick()
	}
}

// --- journal ---

func (d *Device) startJournalTick() {
	if d.journalTimer.Pending() {
		return
	}
	d.journalTimer = d.k.After(d.prof.JournalTick, d.journalTick)
}

func (d *Device) journalTick() {
	d.journalTimer = sim.Timer{}
	if d.state == StateDead || d.state == StateRecovering {
		return
	}
	d.ftlm.MaybeCloseRun(d.k.Now())
	if d.ftlm.PendingRecords() > 0 && !d.metaInFlight {
		d.startMetaCommit()
	}
	d.startJournalTick()
}

// startMetaCommit charges the flash time of persisting the pending mapping
// records; durability takes effect only when the metadata program ends, so
// a cut mid-commit loses the batch.
func (d *Device) startMetaCommit() {
	pending := d.ftlm.PendingRecords()
	if pending == 0 {
		return
	}
	metaPages := (pending + 511) / 512
	d.metaInFlight = true
	ops := make([]pageOp, metaPages)
	d.enqueue(0, &chItem{kind: itemMeta, ops: ops, perPage: d.perPageProg(), onDone: func() {
		d.metaInFlight = false
		d.ftlm.CommitJournal()
	}})
}

// --- garbage collection ---

func (d *Device) checkGC() {
	if d.gcActive || d.state == StateDead || d.state == StateRecovering {
		return
	}
	if !d.ftlm.NeedGC() {
		return
	}
	d.gcActive = true
	d.gcStep()
}

func (d *Device) gcStep() {
	if d.state == StateDead || d.state == StateRecovering {
		d.gcActive = false
		return
	}
	if d.ftlm.GCSatisfied() {
		d.gcActive = false
		return
	}
	plan := d.ftlm.GCPlan()
	if plan == nil {
		d.gcActive = false
		return
	}
	if len(plan.Moves) == 0 {
		d.gcErase(plan.Victim)
		return
	}
	// Phase 1: read every valid page out of the victim.
	fps := make([]content.Fingerprint, len(plan.Moves))
	groups := make([][]pageOp, len(d.channels))
	for i, mv := range plan.Moves {
		ch := d.channelOf(mv.From)
		groups[ch] = append(groups[ch], pageOp{ppn: mv.From, rdIdx: i, rdDst: fps})
	}
	parts := 0
	onReads := func() {
		parts--
		if parts > 0 {
			return
		}
		d.gcProgram(plan, fps)
	}
	for ch, ops := range groups {
		if len(ops) == 0 {
			continue
		}
		parts++
		d.enqueue(ch, &chItem{kind: itemRead, ops: ops, perPage: d.chip.Timing().ReadPage, onDone: onReads})
	}
}

func (d *Device) gcProgram(plan *ftl.GCPlan, fps []content.Fingerprint) {
	if d.state == StateDead || d.state == StateRecovering {
		d.gcActive = false
		return
	}
	groups := make([][]pageOp, len(d.channels))
	for i, mv := range plan.Moves {
		t, err := d.ftlm.BeginWrite(mv.LPN)
		if err != nil {
			d.gcActive = false
			return
		}
		ch := d.channelOf(t.PPN)
		groups[ch] = append(groups[ch], pageOp{ppn: t.PPN, fp: fps[i], lpn: mv.LPN, ticket: t, from: mv.From})
	}
	parts := 0
	onProg := func() {
		parts--
		if parts > 0 {
			return
		}
		d.gcErase(plan.Victim)
	}
	per := d.perPageProg()
	for ch, ops := range groups {
		if len(ops) == 0 {
			continue
		}
		parts++
		d.enqueue(ch, &chItem{kind: itemMove, ops: ops, perPage: per, onDone: onProg})
	}
	if parts == 0 {
		d.gcErase(plan.Victim)
	}
}

func (d *Device) gcErase(victim int) {
	ch := victim % len(d.channels)
	d.enqueue(ch, &chItem{kind: itemErase, block: victim, perPage: d.chip.Timing().EraseBlock, onDone: func() {
		d.ftlm.GCFinish(victim)
		d.gcStep()
	}})
}

// --- power events ---

func (d *Device) onBrownout() {
	if d.state == StateDead || d.state == StateUnavailable {
		return
	}
	d.stats.Brownouts++
	if d.state == StateRecovering && d.recoveryTimer.Pending() {
		d.recoveryTimer.Stop()
		d.recoveryTimer = sim.Timer{}
	}
	d.state = StateUnavailable
	for _, fn := range d.downListeners {
		fn()
	}
	// The host notices the link dropping shortly after; every outstanding
	// command errors. Internal work (flusher, channels) keeps running off
	// the decaying rail until the die voltage.
	pending := make([]*command, len(d.outstanding))
	copy(pending, d.outstanding)
	d.k.After(linkDownDetect, func() {
		for _, cmd := range pending {
			d.completeCmd(cmd, ErrUnavailable)
		}
	})
}

func (d *Device) onDie() {
	if d.state == StateDead {
		return
	}
	d.stats.Deaths++
	if d.prof.SuperCap {
		d.supercapComplete()
	} else {
		d.interruptChannels()
	}
	if d.cache != nil {
		d.stats.DirtyPagesLost += int64(d.cache.DropAll())
	}
	cs := d.ftlm.Crash(d.k.Now())
	d.stats.MappingsLost += int64(cs.Lost)
	if d.flushTimer.Pending() {
		d.flushTimer.Stop()
		d.flushTimer = sim.Timer{}
	}
	if d.journalTimer.Pending() {
		d.journalTimer.Stop()
		d.journalTimer = sim.Timer{}
	}
	d.hasDirtySince = false
	d.flushWaiters = nil
	d.state = StateDead
}

func (d *Device) onPowerGood() {
	switch d.state {
	case StateReady, StateRecovering:
		return
	case StateUnavailable:
		// Rail dipped below brownout but recovered before the controller
		// died: the link comes straight back.
		d.state = StateReady
		d.notifyReady()
		return
	}
	d.state = StateRecovering
	d.stats.Recoveries++
	d.linkBusyUntil = 0
	dur := recoveryBase + d.ftlm.RecoverDuration()
	d.recoveryTimer = d.k.After(dur, func() {
		d.recoveryTimer = sim.Timer{}
		d.state = StateReady
		d.startJournalTick()
		d.notifyReady()
	})
}

func (d *Device) notifyReady() {
	for _, fn := range d.readyListeners {
		fn()
	}
}
