// Package fleet scales the platform from one PSU to a datacenter: a
// fault-domain tree (room → rack → enclosure → PSU) in which every node
// owns a power state and a cut can target any node, propagating to every
// drive beneath it, plus a fleet of m+k redundancy groups (Config.Parity
// parity bays each; a group tolerates up to Parity concurrent casualties)
// with standby spares and per-member rebuild state machines running over
// the tree.
//
// The tree replaces the single shared power.PSU assumption with
// placement-derived correlation, in the spirit of Meza et al.'s datacenter
// failure studies: failures cluster by enclosure, rack and room because
// that is where the shared hardware lives. The paper's classic single-PSU
// platform is the degenerate one-node tree (see Degenerate), so existing
// figures are unchanged by construction.
//
// Rebuild reads and writes are ordinary block-layer requests against the
// member drives, so rebuild traffic competes with foreground IO for member
// bandwidth and degraded-mode latency and rebuild-window vulnerability
// emerge from the queueing models rather than closed-form rates.
package fleet

import (
	"fmt"

	"powerfail/internal/obs"
	"powerfail/internal/sim"
)

// Level is a fault-domain tier, ordered from the widest blast radius
// (Room) to the narrowest (PSU).
type Level int

// Fault-domain levels. A cut at a level powers off every drive beneath the
// targeted node: a PSU cut hits one enclosure's supply segment, a Room cut
// is the paper's whole-rig switch writ large.
const (
	Room Level = iota
	Rack
	Enclosure
	PSU
	numLevels
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Room:
		return "room"
	case Rack:
		return "rack"
	case Enclosure:
		return "enclosure"
	case PSU:
		return "psu"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Levels enumerates the tiers from Room down to PSU.
func Levels() []Level { return []Level{Room, Rack, Enclosure, PSU} }

// DomainConfig sizes the fault-domain tree: one room of Racks racks, each
// holding EnclosuresPerRack enclosures with PSUsPerEnclosure power
// segments. Drives hang off the PSU leaves.
type DomainConfig struct {
	Racks             int `json:"racks"`
	EnclosuresPerRack int `json:"enclosures_per_rack"`
	PSUsPerEnclosure  int `json:"psus_per_enclosure"`
}

// DefaultDomains is a small two-deep room: 2 racks × 2 enclosures × 2 PSUs.
func DefaultDomains() DomainConfig {
	return DomainConfig{Racks: 2, EnclosuresPerRack: 2, PSUsPerEnclosure: 2}
}

func (c DomainConfig) withDefaults() DomainConfig {
	if c.Racks == 0 && c.EnclosuresPerRack == 0 && c.PSUsPerEnclosure == 0 {
		return DefaultDomains()
	}
	if c.Racks == 0 {
		c.Racks = 1
	}
	if c.EnclosuresPerRack == 0 {
		c.EnclosuresPerRack = 1
	}
	if c.PSUsPerEnclosure == 0 {
		c.PSUsPerEnclosure = 1
	}
	return c
}

// Validate checks the configuration.
func (c DomainConfig) Validate() error {
	if c.Racks < 1 || c.EnclosuresPerRack < 1 || c.PSUsPerEnclosure < 1 {
		return fmt.Errorf("fleet: domain fan-outs must be >= 1, got %+v", c)
	}
	return nil
}

// Node is one fault domain. Its power state is derived: a node is powered
// iff neither it nor any ancestor is cut.
type Node struct {
	level    Level
	index    int // index within the level, in construction order
	name     string
	parent   *Node
	children []*Node

	cut     int // active cuts targeting this node itself (cuts nest)
	powered bool
	onPower []func(on bool)
}

// Level returns the node's tier.
func (n *Node) Level() Level { return n.level }

// Index returns the node's position within its tier.
func (n *Node) Index() int { return n.index }

// Name returns the node's path-style label ("rack1/enc0/psu1").
func (n *Node) Name() string { return n.name }

// Parent returns the enclosing domain (nil for the root).
func (n *Node) Parent() *Node { return n.parent }

// Children returns the nested domains.
func (n *Node) Children() []*Node { return n.children }

// Powered reports whether the node currently has power (no cut on itself
// or any ancestor).
func (n *Node) Powered() bool { return n.powered }

// OnPower registers fn to run whenever the node's derived power state
// changes; fn receives the new state. Drives attach here to their PSU leaf.
func (n *Node) OnPower(fn func(on bool)) { n.onPower = append(n.onPower, fn) }

// refresh recomputes the derived power state after a cut or restore and
// fires transition callbacks top-down, so an enclosure's listeners see the
// outage before the drives beneath it do.
func (n *Node) refresh() {
	p := n.cut == 0 && (n.parent == nil || n.parent.powered)
	if p == n.powered {
		return // subtree unchanged: a child's own cut still dominates it
	}
	n.powered = p
	for _, fn := range n.onPower {
		fn(p)
	}
	for _, c := range n.children {
		c.refresh()
	}
}

// Tree is the fault-domain hierarchy. It also keeps the per-level cut and
// restore counts the fleet report surfaces, and the totals the classic
// platform's Report.Cuts/Restores expose.
type Tree struct {
	root   *Node
	levels [numLevels][]*Node

	cuts     [numLevels]int
	restores [numLevels]int

	obsSc   obs.Scope
	obsCuts *obs.Counter
	obsRest *obs.Counter
	now     func() sim.Time
}

// NewTree builds the room → rack → enclosure → PSU hierarchy described by
// cfg, fully powered.
func NewTree(cfg DomainConfig) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{}
	t.root = t.newNode(Room, nil, "room")
	for r := 0; r < cfg.Racks; r++ {
		rack := t.newNode(Rack, t.root, fmt.Sprintf("rack%d", r))
		for e := 0; e < cfg.EnclosuresPerRack; e++ {
			enc := t.newNode(Enclosure, rack, fmt.Sprintf("%s/enc%d", rack.name, e))
			for p := 0; p < cfg.PSUsPerEnclosure; p++ {
				t.newNode(PSU, enc, fmt.Sprintf("%s/psu%d", enc.name, p))
			}
		}
	}
	return t, nil
}

// Degenerate returns the one-node tree: a single PSU domain, the paper's
// classic platform. Cutting the root is exactly the old global switch.
func Degenerate(name string) *Tree {
	t := &Tree{}
	t.root = t.newNode(PSU, nil, name)
	return t
}

func (t *Tree) newNode(l Level, parent *Node, name string) *Node {
	n := &Node{level: l, index: len(t.levels[l]), name: name, parent: parent, powered: true}
	if parent != nil {
		parent.children = append(parent.children, n)
	}
	t.levels[l] = append(t.levels[l], n)
	return n
}

// Root returns the top of the tree (the room, or the single degenerate
// node).
func (t *Tree) Root() *Node { return t.root }

// Nodes returns the nodes of one level in construction order.
func (t *Tree) Nodes(l Level) []*Node {
	if l < 0 || l >= numLevels {
		return nil
	}
	return t.levels[l]
}

// Leaves returns the PSU nodes drives attach to.
func (t *Tree) Leaves() []*Node { return t.levels[PSU] }

// Observe records every cut/restore command into sc: the cuts and
// restores counters plus one KindPower trace event per command, named
// after the targeted node and stamped before the command propagates. The
// clock comes from now because the tree itself is kernel-agnostic. A
// disabled scope is a no-op.
func (t *Tree) Observe(sc obs.Scope, now func() sim.Time) {
	if !sc.Enabled() {
		return
	}
	t.obsSc = sc
	t.obsCuts = sc.Counter("cuts")
	t.obsRest = sc.Counter("restores")
	t.now = now
}

// CutNode powers off n's subtree and counts the cut at n's level. Cuts on
// the same node nest: the subtree stays dark until every cut is restored.
func (t *Tree) CutNode(n *Node) {
	t.cuts[n.level]++
	t.obsCuts.Inc()
	if t.now != nil {
		t.obsSc.Instant(t.now(), obs.KindPower, n.name, 1)
	}
	n.cut++
	if n.cut == 1 {
		n.refresh()
	}
}

// RestoreNode ends one cut targeted at n and counts the restore.
func (t *Tree) RestoreNode(n *Node) {
	t.restores[n.level]++
	t.obsRest.Inc()
	if t.now != nil {
		t.obsSc.Instant(t.now(), obs.KindPower, n.name, 0)
	}
	if n.cut == 0 {
		return
	}
	n.cut--
	if n.cut == 0 {
		n.refresh()
	}
}

// CutsAt returns how many cuts targeted level l.
func (t *Tree) CutsAt(l Level) int {
	if l < 0 || l >= numLevels {
		return 0
	}
	return t.cuts[l]
}

// RestoresAt returns how many restores targeted level l.
func (t *Tree) RestoresAt(l Level) int {
	if l < 0 || l >= numLevels {
		return 0
	}
	return t.restores[l]
}

// Cuts returns the cut commands across every level.
func (t *Tree) Cuts() int { return sum(t.cuts) }

// Restores returns the restore commands across every level.
func (t *Tree) Restores() int { return sum(t.restores) }

func sum(counts [numLevels]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}
