// Package ssd assembles the device-level model of the drives under test:
// NAND chip, FTL, and volatile write-back cache behind a SATA-like link,
// with the power-failure behaviour the paper investigates. The controller
// owns all timing: link transfers, channel-parallel program/read/erase
// bursts, background cache flushing, journal commits, garbage collection,
// brownout (host link loss at 4.5 V), controller death at a lower voltage,
// optional supercapacitor panic flush, and crash recovery at power-on.
package ssd

import (
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/flash"
	"powerfail/internal/ftl"
	"powerfail/internal/sim"
)

// Profile describes one drive model: the paper's Table I columns plus
// the few controller settings that differ between the stock drives. Every
// other calibration value is a package constant shared by all drives.
// Zero values are filled in by Normalize.
type Profile struct {
	// Identity (Table I columns).
	Name        string
	CapacityGB  int
	Interface   string
	ReleaseYear int
	Cell        flash.CellKind
	ECC         flash.ECCConfig
	HasCache    bool
	CacheMB     int
	// SuperCap marks a high-end drive with power-loss protection.
	SuperCap bool

	// Channels is the flash channel count; each channel drives one die.
	Channels int
	// ChanProgBytesPerSec is the effective program bandwidth of one
	// channel (multi-die pipelining folded into one figure).
	ChanProgBytesPerSec float64
	// FlushIdleAge drains cache entries older than this.
	FlushIdleAge sim.Duration
	// JournalTick is the cadence of the mapping-journal commit check.
	JournalTick sim.Duration
}

// Calibration shared by every drive model.
const (
	// Flash array geometry.
	planes           = 2
	pagesPerBlock    = 256
	overprovisionPct = 9
	// wearBERMult scales the raw BER linearly with consumed endurance.
	wearBERMult = 4

	// Host link: SATA 6 Gb/s payload rate and per-command overhead.
	linkBytesPerSec = 550e6
	cmdOverhead     = 30 * sim.Microsecond

	// brownoutVolts drops the host link below this rail voltage.
	brownoutVolts = 4.5
	// dieVolts halts the controller. Consumer controllers hold themselves
	// in reset once the rail sags below the SATA tolerance, only a
	// whisker under the host brownout point; there is no long grace
	// window for flushing. The ~1 ms gap between link loss and controller
	// reset is what leaves programs interrupted mid-ISPP.
	dieVolts = 4.49

	// Cache flush policy.
	dirtyCapPages   = 512 // write backpressure threshold
	flushHighPages  = 128 // drain when this many pages queue
	flushTick       = 10 * sim.Millisecond
	flushBatchPages = 64

	// Recovery.
	recoveryBase   = 50 * sim.Millisecond
	linkDownDetect = 2 * sim.Millisecond
	failFast       = 500 * sim.Microsecond // latency of errors while unavailable
)

// LoadOhms is a drive's equivalent load on the 5 V rail.
const LoadOhms = 60.5

// Normalize fills zero-valued fields with the stock defaults. It returns
// a copy.
func (p Profile) Normalize() Profile {
	if p.Cell == 0 {
		p.Cell = flash.MLC
	}
	if p.ECC.CorrectPerKB == 0 {
		p.ECC = flash.ECCConfig{Scheme: "BCH", CorrectPerKB: 40}
	}
	if p.Channels == 0 {
		p.Channels = 8
	}
	if p.ChanProgBytesPerSec == 0 {
		p.ChanProgBytesPerSec = 50e6
	}
	if p.CacheMB == 0 && p.HasCache {
		p.CacheMB = 32
	}
	if p.FlushIdleAge == 0 {
		p.FlushIdleAge = 650 * sim.Millisecond
	}
	if p.JournalTick == 0 {
		p.JournalTick = 10 * sim.Millisecond
	}
	return p
}

// Validate checks a normalized profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("ssd: profile needs a name")
	}
	if p.CapacityGB <= 0 {
		return fmt.Errorf("ssd: profile %s: capacity must be positive", p.Name)
	}
	if !p.Cell.Valid() {
		return fmt.Errorf("ssd: profile %s: bad cell kind", p.Name)
	}
	if p.Channels <= 0 {
		return fmt.Errorf("ssd: profile %s: bad array dimensions", p.Name)
	}
	if p.HasCache && p.CacheMB <= 0 {
		return fmt.Errorf("ssd: profile %s: cache enabled but CacheMB=0", p.Name)
	}
	return nil
}

// UserPages returns the host-visible capacity in 4 KiB pages.
func (p Profile) UserPages() int64 {
	return int64(p.CapacityGB) << 30 >> addr.PageShift
}

// Geometry derives the flash array geometry for the profile: one die per
// channel.
func (p Profile) Geometry() flash.Geometry {
	return flash.GeometryForCapacity(int64(p.CapacityGB)<<30, overprovisionPct,
		p.Channels, planes, pagesPerBlock)
}

// ChipConfig derives the NAND chip configuration; timing, raw BER and
// endurance follow from the cell technology.
func (p Profile) ChipConfig() flash.Config {
	return flash.Config{
		Geometry:        p.Geometry(),
		Cell:            p.Cell,
		Timing:          flash.TimingFor(p.Cell),
		ECC:             p.ECC,
		BaseBER:         flash.DefaultBER(p.Cell),
		WearBERMult:     wearBERMult,
		EnduranceCycles: flash.DefaultEndurance(p.Cell),
	}
}

// FTLConfig derives the translation-layer configuration.
func (p Profile) FTLConfig() ftl.Config {
	return ftl.DefaultConfig(p.UserPages(), p.Channels)
}

// CachePages returns the cache capacity in pages (0 when disabled).
func (p Profile) CachePages() int {
	if !p.HasCache {
		return 0
	}
	return p.CacheMB << 20 >> addr.PageShift
}

// WithCacheDisabled returns a copy of the profile with the internal
// write-back cache turned off (the paper's disabled-cache experiments).
func (p Profile) WithCacheDisabled() Profile {
	p.HasCache = false
	p.CacheMB = 0
	p.Name = p.Name + "-nocache"
	return p
}

// WithSuperCap returns a copy of the profile with power-loss protection.
func (p Profile) WithSuperCap() Profile {
	p.SuperCap = true
	p.Name = p.Name + "-plp"
	return p
}

// ProfileA models SSD "A" of Table I: 256 GB SATA MLC, internal cache and
// BCH ECC, released 2013.
func ProfileA() Profile {
	return Profile{
		Name: "A", CapacityGB: 256, Interface: "SATA",
		ReleaseYear: 2013, Cell: flash.MLC,
		ECC:      flash.ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
		HasCache: true, CacheMB: 32,
	}.Normalize()
}

// ProfileB models SSD "B": 120 GB SATA TLC with LDPC ECC, released 2015.
func ProfileB() Profile {
	return Profile{
		Name: "B", CapacityGB: 120, Interface: "SATA",
		ReleaseYear: 2015, Cell: flash.TLC,
		ECC:      flash.ECCConfig{Scheme: "LDPC", CorrectPerKB: 100},
		HasCache: true, CacheMB: 16,
		Channels: 4,
	}.Normalize()
}

// ProfileC models SSD "C": 120 GB SATA MLC with cache and BCH ECC,
// release year not published.
func ProfileC() Profile {
	return Profile{
		Name: "C", CapacityGB: 120, Interface: "SATA",
		Cell:     flash.MLC,
		ECC:      flash.ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
		HasCache: true, CacheMB: 16,
		Channels: 4,
	}.Normalize()
}

// ProfileQ models a dense budget drive beyond the paper's rig: 512 GB
// SATA QLC with a large volatile cache, slow channel programs, and LDPC
// ECC working against a high raw bit error rate. In a heterogeneous
// array it is the weakest member: more dirty pages die in its cache on a
// cut, and its interrupted programs corrupt more paired pages.
func ProfileQ() Profile {
	return Profile{
		Name: "Q", CapacityGB: 512, Interface: "SATA",
		ReleaseYear: 2019, Cell: flash.QLC,
		ECC:      flash.ECCConfig{Scheme: "LDPC", CorrectPerKB: 100},
		HasCache: true, CacheMB: 64,
		Channels: 4, ChanProgBytesPerSec: 25e6,
		FlushIdleAge: 900 * sim.Millisecond,
	}.Normalize()
}

// Profiles returns the Table I drive models in order.
func Profiles() []Profile { return []Profile{ProfileA(), ProfileB(), ProfileC()} }

// ProfileByName finds a stock profile: the Table I drives plus the QLC
// extension "Q".
func ProfileByName(name string) (Profile, bool) {
	for _, p := range append(Profiles(), ProfileQ()) {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
