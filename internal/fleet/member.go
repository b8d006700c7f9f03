package fleet

import (
	"errors"
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// ErrMemberDown is surfaced by a member drive that has no power or is
// still spinning up after a restore.
var ErrMemberDown = errors.New("fleet: member drive down")

// MemberProfile is the lightweight service model of a fleet drive: a
// single-server queue with a fixed per-IO overhead and a page-transfer
// time. The detailed FTL/DRAM models of the single-device platform are too
// heavy at hundreds of arrays; what the fleet layer needs from a member is
// that rebuild and foreground IO genuinely contend for its bandwidth.
type MemberProfile struct {
	// Pages is the drive capacity in 4 KiB pages (default 4096 = 16 MiB,
	// small so rebuild windows stay observable in short experiments).
	Pages int64 `json:"pages"`
}

// Member service calibration, shared by every fleet drive.
const (
	// ioLatency is the fixed per-request overhead.
	ioLatency = 150 * sim.Microsecond
	// pageTime is the transfer time per 4 KiB page (~500 MB/s sequential).
	pageTime = 8 * sim.Microsecond
	// readyDelay is the spin-up time after power returns.
	readyDelay = 1500 * sim.Millisecond
)

func (p MemberProfile) withDefaults() MemberProfile {
	if p.Pages == 0 {
		p.Pages = 4096
	}
	return p
}

// Validate checks the profile.
func (p MemberProfile) Validate() error {
	if p.Pages < 0 {
		return fmt.Errorf("fleet: member Pages must be non-negative, got %d", p.Pages)
	}
	return nil
}

// MemberIOStats counts one member drive's served traffic in pages, split
// by origin so rebuild bytes are visible next to foreground bytes.
type MemberIOStats struct {
	ForegroundReadPages  int64 `json:"fg_read_pages"`
	ForegroundWritePages int64 `json:"fg_write_pages"`
	RebuildReadPages     int64 `json:"rebuild_read_pages"`
	RebuildWritePages    int64 `json:"rebuild_write_pages"`
	Errors               int64 `json:"errors"`
}

// Member is one drive bay of the fleet: a lightweight drive implementing
// blockdev.Drive, powered by a PSU leaf of the fault-domain tree and
// fronted by its own ordinary blockdev.Queue. Both foreground requests and
// rebuild traffic go through that queue, which is what makes rebuilds
// steal real member bandwidth.
type Member struct {
	k    *sim.Kernel
	prof MemberProfile
	id   int
	psu  *Node

	powered  bool
	ready    bool
	nextFree sim.Time
	gen      uint64 // bumped on power loss so stale completions error out

	queue *blockdev.Queue
	stats MemberIOStats

	readyFns []func()
	downFns  []func()

	svcFree []*svcCall
	ioFree  []*ioRec
}

// svcCall is a pooled service-completion record: one per IO in flight at
// the member's single-server queue, recycled when its event fires. fn is
// created once and reused, so steady-state Submit allocates nothing.
type svcCall struct {
	m     *Member
	op    blockdev.Op
	pages int
	gen   uint64
	done  func(err error, result content.Data)
	fn    func()
}

func (m *Member) getSvc(op blockdev.Op, pages int, gen uint64, done func(err error, result content.Data)) *svcCall {
	var c *svcCall
	if n := len(m.svcFree); n > 0 {
		c = m.svcFree[n-1]
		m.svcFree = m.svcFree[:n-1]
	} else {
		c = &svcCall{m: m}
		c.fn = func() {
			op, pages, gen, done := c.op, c.pages, c.gen, c.done
			c.done = nil
			c.m.svcFree = append(c.m.svcFree, c)
			c.m.svcDone(op, pages, gen, done)
		}
	}
	c.op, c.pages, c.gen, c.done = op, pages, gen, done
	return c
}

// svcDone delivers one service completion (the body of the old per-IO
// closure in Submit).
func (m *Member) svcDone(op blockdev.Op, pages int, gen uint64, done func(err error, result content.Data)) {
	if m.gen != gen || !m.ready {
		done(ErrMemberDown, content.Data{})
		return
	}
	if op == blockdev.OpRead {
		done(nil, content.Zeroes(pages))
		return
	}
	done(nil, content.Data{})
}

// ioRec is a pooled submitIO bookkeeping record with a cached Done
// closure, so routing a fleet request through the block layer allocates
// nothing in steady state.
type ioRec struct {
	m       *Member
	op      blockdev.Op
	pages   int
	rebuild bool
	done    func(error)
	fn      func(*blockdev.Request)
}

func (m *Member) getIORec(op blockdev.Op, pages int, rebuild bool, done func(error)) *ioRec {
	var rec *ioRec
	if n := len(m.ioFree); n > 0 {
		rec = m.ioFree[n-1]
		m.ioFree = m.ioFree[:n-1]
	} else {
		rec = &ioRec{m: m}
		rec.fn = func(req *blockdev.Request) {
			op, pages, rebuild, done := rec.op, rec.pages, rec.rebuild, rec.done
			rec.done = nil
			rec.m.ioFree = append(rec.m.ioFree, rec)
			rec.m.ioDone(req, op, pages, rebuild, done)
		}
	}
	rec.op, rec.pages, rec.rebuild, rec.done = op, pages, rebuild, done
	return rec
}

func (m *Member) ioDone(req *blockdev.Request, op blockdev.Op, pages int, rebuild bool, done func(error)) {
	if req.Err != nil {
		m.stats.Errors++
	} else {
		switch {
		case op == blockdev.OpRead && rebuild:
			m.stats.RebuildReadPages += int64(pages)
		case op == blockdev.OpRead:
			m.stats.ForegroundReadPages += int64(pages)
		case rebuild:
			m.stats.RebuildWritePages += int64(pages)
		default:
			m.stats.ForegroundWritePages += int64(pages)
		}
	}
	done(req.Err)
}

// newMember builds a drive on the given PSU leaf and wires its power
// transitions.
func newMember(k *sim.Kernel, prof MemberProfile, id int, psu *Node) (*Member, error) {
	m := &Member{k: k, prof: prof, id: id, psu: psu, powered: psu.Powered(), ready: psu.Powered()}
	q, err := blockdev.New(k, m, blockdev.DefaultPendingCap)
	if err != nil {
		return nil, err
	}
	m.queue = q
	psu.OnPower(m.onPower)
	return m, nil
}

// Name implements blockdev.Drive.
func (m *Member) Name() string { return fmt.Sprintf("m%d@%s", m.id, m.psu.Name()) }

// UserPages implements blockdev.Drive.
func (m *Member) UserPages() int64 { return m.prof.Pages }

// Ready implements blockdev.Drive.
func (m *Member) Ready() bool { return m.ready }

// NotifyReady implements blockdev.Drive.
func (m *Member) NotifyReady(fn func()) { m.readyFns = append(m.readyFns, fn) }

// NotifyDown implements blockdev.Drive.
func (m *Member) NotifyDown(fn func()) { m.downFns = append(m.downFns, fn) }

// PSU returns the fault-domain leaf powering the drive.
func (m *Member) PSU() *Node { return m.psu }

// Queue returns the member's host block layer; all fleet IO to this drive
// is submitted here.
func (m *Member) Queue() *blockdev.Queue { return m.queue }

// Stats returns a snapshot of the served-IO counters.
func (m *Member) Stats() MemberIOStats { return m.stats }

func (m *Member) onPower(on bool) {
	if on {
		m.powered = true
		gen := m.gen
		m.k.After(readyDelay, func() {
			if !m.powered || m.gen != gen {
				return // another outage intervened during spin-up
			}
			m.ready = true
			m.nextFree = m.k.Now()
			for _, fn := range m.readyFns {
				fn()
			}
		})
		return
	}
	m.powered = false
	wasReady := m.ready
	m.ready = false
	m.gen++ // in-flight service completions observe the stale generation
	if wasReady {
		for _, fn := range m.downFns {
			fn()
		}
	}
}

// Submit implements blockdev.Device: a single-server queue in which each
// request occupies the drive for ioLatency + pages·pageTime after the
// previous request finishes. Requests caught by a power cut complete with
// ErrMemberDown at their scheduled instant, like a died-mid-flight drive.
func (m *Member) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(err error, result content.Data)) {
	if !m.ready {
		m.k.After(100*sim.Microsecond, func() { done(ErrMemberDown, content.Data{}) })
		return
	}
	if op != blockdev.OpFlush && (lpn < 0 || int64(lpn)+int64(pages) > m.prof.Pages) {
		m.k.After(100*sim.Microsecond, func() { done(fmt.Errorf("fleet: member address out of range"), content.Data{}) })
		return
	}
	start := m.k.Now()
	if m.nextFree > start {
		start = m.nextFree
	}
	finish := start.Add(ioLatency + sim.Duration(pages)*pageTime)
	m.nextFree = finish
	m.k.At(finish, m.getSvc(op, pages, m.gen, done).fn)
}

// submitIO routes one fleet request (foreground or rebuild) through the
// member's block layer, keeping the origin-split counters; done fires with
// the request's final error.
func (m *Member) submitIO(op blockdev.Op, lpn addr.LPN, pages int, rebuild bool, done func(error)) {
	req := m.queue.NewRequest()
	req.Op = op
	req.LPN = lpn
	req.Pages = pages
	if op == blockdev.OpWrite {
		req.Data = content.Zeroes(pages)
	}
	req.Done = m.getIORec(op, pages, rebuild, done).fn
	m.queue.Submit(req)
}
