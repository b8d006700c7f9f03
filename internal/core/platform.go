package core

import (
	"fmt"

	"powerfail/internal/array"
	"powerfail/internal/blockdev"
	"powerfail/internal/fleet"
	"powerfail/internal/hdd"
	"powerfail/internal/obs"
	"powerfail/internal/power"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
	"powerfail/internal/txn"
)

// TopologyKind selects what hangs behind the block layer.
type TopologyKind int

// Device topologies. The zero value keeps the platform's historical shape:
// one SSD under test.
const (
	TopoSSD TopologyKind = iota
	TopoHDD
	TopoArray
)

// String implements fmt.Stringer.
func (k TopologyKind) String() string {
	switch k {
	case TopoSSD:
		return "ssd"
	case TopoHDD:
		return "hdd"
	case TopoArray:
		return "array"
	default:
		return fmt.Sprintf("TopologyKind(%d)", int(k))
	}
}

// Topology describes the device side of the platform: a single SSD
// (Options.Profile), a single HDD, or a composite array whose members all
// share the platform's one simulated PSU — so a power fault is correlated
// across every member, as in the paper's rig.
type Topology struct {
	Kind TopologyKind
	// HDD configures the single-HDD topology; the zero value selects
	// hdd.DefaultProfile().
	HDD hdd.Profile
	// Array configures the multi-device topology (RAID-0/1/5 or
	// SSD-cache-over-HDD).
	Array array.Config
}

// Options configures a Platform instance.
type Options struct {
	// Seed drives every random stream; identical (Seed, spec) pairs
	// reproduce identical reports.
	Seed uint64
	// Profile is the drive under test for the single-SSD topology; zero
	// value selects SSD A.
	Profile ssd.Profile
	// Topology selects the device side (single SSD by default).
	Topology Topology
	// Txn, when non-nil, runs the write-ahead-log transaction engine on
	// top of the device and the crash-consistency oracle after every
	// fault. The experiment's Workload is ignored (the engine generates
	// its own IO); open-loop pacing (Workload.IOPS) is not supported.
	Txn *txn.Config
	// Fleet, when non-nil, replaces the single-device platform with a
	// datacenter fleet: a fault-domain tree of rooms, racks, enclosures and
	// PSUs with N redundancy groups, standby spares and rebuild state
	// machines on top. Profile/Topology/Txn/Workload are ignored; the fleet
	// generates its own foreground IO and fault plan.
	Fleet *fleet.Config
	// PendingCap bounds the host block layer's dispatch queue: a request
	// arriving while this many sub-requests wait is rejected as not
	// issued. 0 selects blockdev.DefaultPendingCap; the segment size, NCQ
	// depth and timeout are fixed blockdev constants.
	PendingCap int
	// TransistorCut replaces the supply's Fig. 4 capacitive discharge
	// with the near-instant transistor cut of earlier studies
	// (power.TransistorConfig).
	TransistorCut bool
	// Concurrency is the closed-loop outstanding-request budget
	// (default 1: a synchronous IO thread, as in the paper's generator).
	// It also sizes the post-fault control-read pipeline: up to this many
	// verification/recovery reads stay in flight at once, so values above
	// 1 shorten fault cycles on multi-channel devices.
	Concurrency int
	// Obs, when non-nil, turns on the observability layer (sim-time
	// metrics registry and typed trace events) for this run. Nil — the
	// default — disables it entirely: reports are byte-identical to
	// builds without the layer, and the instrumented paths cost one nil
	// check each.
	Obs *obs.Config
}

func (o Options) withDefaults() Options {
	if o.Profile.Name == "" {
		o.Profile = ssd.ProfileA()
	}
	if o.Topology.Kind == TopoHDD && o.Topology.HDD.Name == "" {
		o.Topology.HDD = hdd.DefaultProfile()
	}
	if o.PendingCap == 0 {
		o.PendingCap = blockdev.DefaultPendingCap
	}
	if o.Concurrency == 0 {
		o.Concurrency = 1
	}
	return o
}

// The rig's fixed timing, as in the paper's IO generator and analyzer.
const (
	// thinkTime separates a completion from the next closed-loop issue.
	thinkTime = 300 * sim.Microsecond
	// settleAfterOff holds the rail at the floor before restoring power.
	settleAfterOff = 150 * sim.Millisecond
	// offFloorVolts is the rail voltage treated as fully discharged.
	offFloorVolts = 0.25
	// recheckWindow bounds re-verification of already verified packets.
	recheckWindow = 2 * sim.Second
)

// Platform wires the hardware part (PSU, ATX, Arduino) to the device under
// test and the software part (scheduler, IO generator, analyzer) exactly
// as in Fig. 1 of the paper. Dev is whatever the Topology selected; the
// typed fields below it expose the concrete device(s) for stats and tests
// (nil for the topologies that do not use them).
type Platform struct {
	Opts Options

	K       *sim.Kernel
	RNG     *sim.RNG
	PSU     *power.PSU
	ATX     *power.ATX
	Arduino *power.Arduino
	Dev     blockdev.Drive
	SSD     *ssd.Device  // single-SSD topology
	HDD     *hdd.Disk    // single-HDD topology
	Array   *array.Array // array topology
	Host    *blockdev.Queue
	Sched   *FaultScheduler
	Obs     *obs.Set // nil unless Options.Obs is set
}

// NewPlatform builds and wires a complete test platform.
func NewPlatform(opts Options) (*Platform, error) {
	opts = opts.withDefaults()
	if opts.Concurrency < 1 {
		return nil, fmt.Errorf("core: Concurrency must be >= 1, got %d", opts.Concurrency)
	}
	k := sim.New()
	root := sim.NewRNG(opts.Seed)

	psuCfg := power.DefaultConfig()
	if opts.TransistorCut {
		psuCfg = power.TransistorConfig()
	}
	psu, err := power.New(k, psuCfg)
	if err != nil {
		return nil, fmt.Errorf("core: psu: %w", err)
	}
	atx := power.NewATX(psu)
	ard := power.NewArduino(k, power.DefaultSerialLatency, atx.SetPin16)

	p := &Platform{
		Opts:    opts,
		K:       k,
		RNG:     root,
		PSU:     psu,
		ATX:     atx,
		Arduino: ard,
		Sched:   nil,
	}
	if opts.Obs != nil {
		p.Obs = obs.NewSet()
	}
	switch opts.Topology.Kind {
	case TopoSSD:
		dev, err := ssd.New(k, root.Fork("ssd"), opts.Profile, psu)
		if err != nil {
			return nil, fmt.Errorf("core: device: %w", err)
		}
		p.SSD, p.Dev = dev, dev
	case TopoHDD:
		disk, err := hdd.New(k, root.Fork("hdd"), opts.Topology.HDD, psu)
		if err != nil {
			return nil, fmt.Errorf("core: device: %w", err)
		}
		p.HDD, p.Dev = disk, disk
	case TopoArray:
		arr, err := array.New(k, root, opts.Topology.Array, psu)
		if err != nil {
			return nil, fmt.Errorf("core: device: %w", err)
		}
		arr.Observe(p.Obs.Scope("array"))
		p.Array, p.Dev = arr, arr
	default:
		return nil, fmt.Errorf("core: unknown topology kind %d", int(opts.Topology.Kind))
	}

	host, err := blockdev.New(k, p.Dev, opts.PendingCap)
	if err != nil {
		return nil, fmt.Errorf("core: host: %w", err)
	}
	p.Host = host
	host.Observe(p.Obs.Scope("blockdev"))
	host.TraceIOs(p.Obs.Scope("blk"))
	p.Sched = NewFaultScheduler(ard)
	p.Sched.Instrument(p.Obs.Scope("power"), k)
	return p, nil
}

// ObsScope returns an observability scope for comp, disabled (zero)
// when the platform runs without observability.
func (p *Platform) ObsScope(comp string) obs.Scope { return p.Obs.Scope(comp) }

// FaultScheduler is the paper's Scheduler component: it decides fault
// instants and sends On/Off commands to the microcontroller. Since the
// fleet layer arrived it is built over a fault-domain tree: the classic
// platform is the degenerate one-node tree whose root transitions drive
// the Arduino, and the tree counts and observes its own cuts, so
// Cuts/Restores semantics are unchanged while multi-domain scheduling
// reuses the same accounting instead of duplicating it.
type FaultScheduler struct {
	tree *fleet.Tree
}

// NewFaultScheduler wires a scheduler to the Arduino through the degenerate
// single-PSU tree, the paper's rig.
func NewFaultScheduler(ard *power.Arduino) *FaultScheduler {
	return NewFaultSchedulerOverTree(ard, fleet.Degenerate("psu"))
}

// NewFaultSchedulerOverTree wires a scheduler to the Arduino through an
// arbitrary fault-domain tree: the root's power transitions send the
// hardware commands, so any single-path tree behaves byte-identically to
// the classic one-PSU scheduler.
func NewFaultSchedulerOverTree(ard *power.Arduino, tree *fleet.Tree) *FaultScheduler {
	tree.Root().OnPower(func(on bool) {
		cmd := power.CmdCut
		if on {
			cmd = power.CmdRestore
		}
		if err := ard.Send(cmd); err != nil {
			panic(err)
		}
	})
	return &FaultScheduler{tree: tree}
}

// Cut commands the hardware to drop PS_ON#, starting the PSU discharge.
func (s *FaultScheduler) Cut() { s.tree.CutNode(s.tree.Root()) }

// Restore commands the hardware to re-assert PS_ON#.
func (s *FaultScheduler) Restore() { s.tree.RestoreNode(s.tree.Root()) }

// Cuts returns the number of Cut commands sent.
func (s *FaultScheduler) Cuts() int { return s.tree.Cuts() }

// Restores returns the number of Restore commands sent.
func (s *FaultScheduler) Restores() int { return s.tree.Restores() }

// Instrument records every cut/restore command into sc as KindPower
// trace events plus counters, stamped on k's clock. A disabled scope is
// a no-op.
func (s *FaultScheduler) Instrument(sc obs.Scope, k *sim.Kernel) {
	s.tree.Observe(sc, func() sim.Time { return k.Now() })
}
