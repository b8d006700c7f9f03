package ssd

import (
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/ftl"
	"powerfail/internal/sim"
)

// itemKind distinguishes the work units a flash channel executes.
type itemKind int

const (
	itemProgram itemKind = iota // host data program (cache flush or write-through)
	itemMove                    // garbage-collection migration program
	itemMeta                    // journal commit metadata program
	itemRead                    // page reads
	itemErase                   // block erase
)

// pageOp is one page worth of channel work.
type pageOp struct {
	ppn    addr.PPN
	fp     content.Fingerprint
	lpn    addr.LPN
	seq    uint64     // cache sequence to retire (0 = no cache entry)
	ticket ftl.Ticket // program/move reservation
	from   addr.PPN   // move source
	rdIdx  int        // read destination index
	rdDst  []content.Fingerprint
}

// chItem is a batch executed back-to-back on one channel. A power cut
// lands between or inside its per-page slots; interruption effects are
// computed from elapsed time.
type chItem struct {
	kind    itemKind
	ops     []pageOp
	perPage sim.Duration
	block   int // erase target
	onDone  func()
	startAt sim.Time
}

func (it *chItem) duration() sim.Duration {
	if it.kind == itemErase {
		return it.perPage
	}
	return it.perPage * sim.Duration(len(it.ops))
}

// channel serialises items FIFO, one at a time.
type channel struct {
	idx   int
	queue []*chItem
	cur   *chItem
	timer sim.Timer
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("ssd: invariant violated: %v", err))
	}
}

func (d *Device) channelOf(p addr.PPN) int {
	return d.chip.Geometry().BlockOf(p) % len(d.channels)
}

func (d *Device) enqueue(ch int, it *chItem) {
	c := d.channels[ch]
	c.queue = append(c.queue, it)
	d.kick(c)
}

func (d *Device) kick(c *channel) {
	if c.cur != nil || len(c.queue) == 0 {
		return
	}
	if d.state == StateDead || d.state == StateRecovering {
		return
	}
	it := c.queue[0]
	c.queue = c.queue[1:]
	c.cur = it
	it.startAt = d.k.Now()
	c.timer = d.k.After(it.duration(), func() { d.itemDone(c) })
}

func (d *Device) itemDone(c *channel) {
	it := c.cur
	c.cur = nil
	c.timer = sim.Timer{}
	d.applyComplete(it)
	if it.onDone != nil {
		it.onDone()
	}
	d.kick(c)
}

// applyComplete commits the effects of a fully executed item.
func (d *Device) applyComplete(it *chItem) {
	if it.kind == itemErase {
		must(d.chip.Erase(it.block))
		return
	}
	for i := range it.ops {
		d.applyOp(&it.ops[i], it.kind)
	}
}

// applyOp commits one successfully finished page operation.
func (d *Device) applyOp(op *pageOp, kind itemKind) {
	switch kind {
	case itemProgram:
		must(d.chip.Program(op.ppn, op.fp))
		d.ftlm.CompleteWrite(op.ticket, d.k.Now())
		if d.cache != nil && op.seq != 0 {
			d.cache.FlushDone(op.lpn, op.seq)
		}
		d.stats.PagesProgrammed++
	case itemMove:
		must(d.chip.Program(op.ppn, op.fp))
		d.ftlm.CompleteMove(op.ticket, op.from, d.k.Now())
		d.stats.PagesProgrammed++
	case itemRead:
		res, err := d.chip.Read(op.ppn)
		must(err)
		op.rdDst[op.rdIdx] = res.FP
		d.stats.PagesRead++
	case itemMeta:
		// Durability happens in onDone via CommitJournal.
	}
}

// interruptChannels models the controller dying mid-operation: completed
// page slots of the running item are applied, the in-progress page becomes
// a partial program, and everything queued behind is abandoned.
func (d *Device) interruptChannels() {
	now := d.k.Now()
	for _, c := range d.channels {
		if c.timer.Pending() {
			c.timer.Stop()
			c.timer = sim.Timer{}
		}
		if it := c.cur; it != nil {
			c.cur = nil
			elapsed := now.Sub(it.startAt)
			d.applyInterrupted(it, elapsed)
		}
		for _, it := range c.queue {
			d.abandonItem(it)
		}
		c.queue = nil
	}
	d.metaInFlight = false
	d.gcActive = false
}

func (d *Device) applyInterrupted(it *chItem, elapsed sim.Duration) {
	if it.kind == itemErase {
		frac := float64(elapsed) / float64(it.perPage)
		must(d.chip.ErasePartial(it.block, frac))
		d.ftlm.GCAbort()
		d.stats.InterruptedErases++
		return
	}
	doneN := 0
	if it.perPage > 0 {
		doneN = int(elapsed / it.perPage)
	}
	if doneN > len(it.ops) {
		doneN = len(it.ops)
	}
	for i := 0; i < doneN; i++ {
		d.applyOp(&it.ops[i], it.kind)
	}
	if doneN >= len(it.ops) {
		return
	}
	rem := elapsed - sim.Duration(doneN)*it.perPage
	start := doneN
	if rem > 0 && (it.kind == itemProgram || it.kind == itemMove) {
		frac := float64(rem) / float64(it.perPage)
		op := &it.ops[doneN]
		must(d.chip.ProgramPartial(op.ppn, op.fp, frac))
		d.ftlm.AbortWrite(op.ticket)
		d.stats.InterruptedPrograms++
		start = doneN + 1
	}
	for i := start; i < len(it.ops); i++ {
		if it.kind == itemProgram || it.kind == itemMove {
			d.ftlm.AbortWrite(it.ops[i].ticket)
		}
	}
}

func (d *Device) abandonItem(it *chItem) {
	if it.kind == itemProgram || it.kind == itemMove {
		for i := range it.ops {
			d.ftlm.AbortWrite(it.ops[i].ticket)
		}
	}
}

// supercapComplete is the power-loss-protection path: the supercapacitor
// holds the controller up long enough to finish in-flight work, drain the
// cache, and commit the journal, so nothing volatile is lost.
func (d *Device) supercapComplete() {
	for _, c := range d.channels {
		if c.timer.Pending() {
			c.timer.Stop()
			c.timer = sim.Timer{}
		}
		if it := c.cur; it != nil {
			c.cur = nil
			d.applyComplete(it)
			if it.kind == itemErase {
				d.ftlm.GCFinish(it.block)
			}
		}
		for _, it := range c.queue {
			d.applyComplete(it)
			if it.kind == itemErase {
				d.ftlm.GCFinish(it.block)
			}
		}
		c.queue = nil
	}
	d.metaInFlight = false
	d.gcActive = false
	if d.cache != nil {
		for {
			ents := d.cache.PopDirty(1024)
			if len(ents) == 0 {
				break
			}
			for _, e := range ents {
				t, err := d.ftlm.BeginWrite(e.LPN)
				if err != nil {
					d.cache.FlushFailed(e.LPN, e.Seq)
					break
				}
				must(d.chip.Program(t.PPN, e.FP))
				d.ftlm.CompleteWrite(t, d.k.Now())
				d.cache.FlushDone(e.LPN, e.Seq)
			}
		}
	}
	d.ftlm.ForceCloseRun()
	d.ftlm.CommitJournal()
	d.stats.PanicFlushes++
}
