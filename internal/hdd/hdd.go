// Package hdd models a conventional hard disk drive as a comparator for
// the SSDs under test. The paper's platform drives "the under test SSDs
// (or HDDs)" from the same PSU; an HDD makes a useful baseline because its
// write path is mechanical and write-through (no multi-millisecond ISPP,
// no volatile mapping table), so power faults produce a very different
// failure profile: at most the sector being written at the instant of the
// cut is torn, and nothing previously acknowledged is disturbed.
//
// The model implements blockdev.Device, so the whole platform — block
// layer, tracer, analyzer — runs unchanged against it.
package hdd

import (
	"errors"
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/power"
	"powerfail/internal/sim"
)

// Profile names a drive and sizes it. The mechanics and electrical
// behaviour below are shared by every HDD.
type Profile struct {
	Name       string
	CapacityGB int
}

// Drive calibration: a 7200 RPM desktop drive.
const (
	avgSeek          = 8 * sim.Millisecond
	rotHalf          = 30 * sim.Second / 7200 // half a revolution at 7200 RPM
	mediaBytesPerSec = 150e6                  // sustained platter transfer rate
	// brownoutVolts drops the host link, as for the SSDs.
	brownoutVolts = 4.5
	loadOhms      = 30
	failFast      = 500 * sim.Microsecond
	recoveryTime  = 2 * sim.Second // spin-up
)

// DefaultProfile is the 500 GB desktop drive.
func DefaultProfile() Profile {
	return Profile{Name: "HDD", CapacityGB: 500}
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.CapacityGB <= 0 {
		return fmt.Errorf("hdd: bad profile %+v", p)
	}
	return nil
}

// UserPages returns the exported capacity in 4 KiB pages.
func (p Profile) UserPages() int64 { return int64(p.CapacityGB) << 30 >> addr.PageShift }

// ErrUnavailable mirrors the SSD error for a drive below brownout.
var ErrUnavailable = errors.New("hdd: device unavailable")

// Stats counts drive activity.
type Stats struct {
	Reads       int64
	Writes      int64
	Errors      int64
	TornSectors int64
	// CacheLost is always 0: the drive is write-through. The field keeps
	// the report layout.
	CacheLost  int64
	Deaths     int64
	Recoveries int64
}

// Disk is the drive. Sector contents are fingerprints, like the SSD model.
type Disk struct {
	k    *sim.Kernel
	r    *sim.RNG
	prof Profile

	media map[addr.LPN]content.Fingerprint

	available bool
	busyUntil sim.Time
	spinup    sim.Timer // pending recovery; cancelled by a new power loss
	// inFlightWrite tracks the page being written at any instant so a cut
	// can tear exactly that sector.
	cur   *writeJob
	stats Stats

	readyListeners []func()
	downListeners  []func()
}

type writeJob struct {
	lpn     addr.LPN
	pages   int
	data    content.Data
	startAt sim.Time
	perPage sim.Duration
	done    func(error, content.Data)
	timer   sim.Timer
}

// New attaches a disk to the PSU rail.
func New(k *sim.Kernel, r *sim.RNG, prof Profile, psu *power.PSU) (*Disk, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{
		k:         k,
		r:         r,
		prof:      prof,
		media:     make(map[addr.LPN]content.Fingerprint),
		available: true,
	}
	if psu != nil {
		psu.Connect("hdd-"+prof.Name, loadOhms)
		psu.NotifyBelow(brownoutVolts, d.onPowerLoss)
		psu.NotifyAbove(brownoutVolts+0.25, d.onPowerGood)
	}
	return d, nil
}

// Name implements blockdev.Drive.
func (d *Disk) Name() string { return d.prof.Name }

// UserPages implements blockdev.Drive.
func (d *Disk) UserPages() int64 { return d.prof.UserPages() }

// Stats returns the counters.
func (d *Disk) Stats() Stats { return d.stats }

// Ready implements blockdev.Drive.
func (d *Disk) Ready() bool { return d.available }

// NotifyReady registers fn to run every time the drive finishes spin-up
// after a power loss.
func (d *Disk) NotifyReady(fn func()) { d.readyListeners = append(d.readyListeners, fn) }

// NotifyDown registers fn to run every time the drive drops off the bus.
func (d *Disk) NotifyDown(fn func()) { d.downListeners = append(d.downListeners, fn) }

func (d *Disk) serviceStart() sim.Time {
	now := d.k.Now()
	if d.busyUntil > now {
		return d.busyUntil
	}
	return now
}

// Submit implements blockdev.Device.
func (d *Disk) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(err error, result content.Data)) {
	if !d.available {
		d.stats.Errors++
		d.k.After(failFast, func() { done(ErrUnavailable, content.Data{}) })
		return
	}
	if lpn < 0 || int64(lpn)+int64(pages) > d.prof.UserPages() {
		d.stats.Errors++
		d.k.After(failFast, func() { done(errors.New("hdd: out of range"), content.Data{}) })
		return
	}
	mech := avgSeek + rotHalf
	xfer := sim.Duration(float64(pages*addr.PageBytes) / mediaBytesPerSec * 1e9)
	start := d.serviceStart().Add(mech)
	switch op {
	case blockdev.OpRead:
		d.busyUntil = start.Add(xfer)
		d.k.At(d.busyUntil, func() {
			if !d.available {
				done(ErrUnavailable, content.Data{})
				return
			}
			d.stats.Reads++
			done(nil, content.Gather(pages, func(i int) content.Fingerprint {
				return d.media[lpn+addr.LPN(i)]
			}))
		})
	case blockdev.OpWrite:
		// Write-through: the head commits sector by sector; completion
		// and ACK coincide.
		job := &writeJob{
			lpn: lpn, pages: pages, data: data,
			startAt: start,
			perPage: xfer / sim.Duration(pages),
			done:    done,
		}
		d.busyUntil = start.Add(xfer)
		d.cur = job
		job.timer = d.k.At(d.busyUntil, func() {
			d.cur = nil
			for i := 0; i < pages; i++ {
				d.media[lpn+addr.LPN(i)] = data.Page(i)
			}
			d.stats.Writes++
			done(nil, content.Data{})
		})
	default: // flush
		d.k.After(failFast, func() { done(nil, content.Data{}) })
	}
}

// onPowerLoss models the cut: the sector under the head right now is
// torn, and the drive drops off the bus until power and spin-up return.
func (d *Disk) onPowerLoss() {
	// A cut during spin-up aborts the recovery; the drive stays off the
	// bus until the next power-good restarts it.
	if d.spinup.Pending() {
		d.spinup.Stop()
		d.spinup = sim.Timer{}
	}
	if !d.available {
		return
	}
	d.available = false
	d.stats.Deaths++
	for _, fn := range d.downListeners {
		fn()
	}
	if job := d.cur; job != nil {
		job.timer.Stop()
		elapsed := d.k.Now().Sub(job.startAt)
		if elapsed > 0 && job.perPage > 0 {
			done := int(elapsed / job.perPage)
			for i := 0; i < done && i < job.pages; i++ {
				d.media[job.lpn+addr.LPN(i)] = job.data.Page(i)
			}
			if done < job.pages {
				// The sector under the head is torn: unreadable garbage.
				d.media[job.lpn+addr.LPN(done)] = content.Mix(job.data.Page(done), d.r.Uint64())
				d.stats.TornSectors++
			}
		}
		// The host never hears the ACK; its block layer errors/times out.
		d.cur = nil
	}
	d.busyUntil = 0
}

func (d *Disk) onPowerGood() {
	if d.available || d.spinup.Pending() {
		return
	}
	d.spinup = d.k.After(recoveryTime, func() {
		d.spinup = sim.Timer{}
		d.available = true
		d.stats.Recoveries++
		for _, fn := range d.readyListeners {
			fn()
		}
	})
}
