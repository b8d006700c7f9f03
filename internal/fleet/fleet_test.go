package fleet

import (
	"encoding/json"
	"testing"

	"powerfail/internal/sim"
)

func TestTreePowerPropagation(t *testing.T) {
	tr, err := NewTree(DomainConfig{Racks: 2, EnclosuresPerRack: 2, PSUsPerEnclosure: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Leaves()); got != 8 {
		t.Fatalf("leaves = %d, want 8", got)
	}
	enc := tr.Nodes(Enclosure)[1] // rack0/enc1: leaves 2 and 3
	var transitions []string
	for _, leaf := range tr.Leaves() {
		l := leaf
		l.OnPower(func(on bool) {
			transitions = append(transitions, l.Name())
			_ = on
		})
	}
	tr.CutNode(enc)
	if len(transitions) != 2 {
		t.Fatalf("enclosure cut reached %d leaves (%v), want exactly its 2", len(transitions), transitions)
	}
	for i, leaf := range tr.Leaves() {
		want := i != 2 && i != 3
		if leaf.Powered() != want {
			t.Errorf("leaf %d (%s) powered = %v, want %v", i, leaf.Name(), leaf.Powered(), want)
		}
	}
	if tr.CutsAt(Enclosure) != 1 || tr.CutsAt(PSU) != 0 {
		t.Errorf("cut counted at wrong level: enc=%d psu=%d", tr.CutsAt(Enclosure), tr.CutsAt(PSU))
	}
	tr.RestoreNode(enc)
	for i, leaf := range tr.Leaves() {
		if !leaf.Powered() {
			t.Errorf("leaf %d dark after restore", i)
		}
	}
}

func TestTreeNestedCuts(t *testing.T) {
	tr, err := NewTree(DomainConfig{Racks: 1, EnclosuresPerRack: 1, PSUsPerEnclosure: 1})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tr.Leaves()[0]
	rack := tr.Nodes(Rack)[0]
	// Overlapping cuts at two levels: the leaf stays dark until both end.
	tr.CutNode(rack)
	tr.CutNode(leaf)
	tr.RestoreNode(rack)
	if leaf.Powered() {
		t.Fatal("leaf powered while its own cut is still active")
	}
	tr.RestoreNode(leaf)
	if !leaf.Powered() {
		t.Fatal("leaf dark after all cuts restored")
	}
	// Same-node cuts nest via refcount.
	tr.CutNode(leaf)
	tr.CutNode(leaf)
	tr.RestoreNode(leaf)
	if leaf.Powered() {
		t.Fatal("leaf powered with one of two nested cuts still active")
	}
	tr.RestoreNode(leaf)
	if !leaf.Powered() {
		t.Fatal("leaf dark after nested cuts fully restored")
	}
}

// TestTreeAccounting: the tree counts every cut and restore command at
// the targeted node's level and in total, nested and no-op restores
// included.
func TestTreeAccounting(t *testing.T) {
	tr := Degenerate("psu")
	for i := 0; i < 3; i++ {
		tr.CutNode(tr.Root())
		tr.RestoreNode(tr.Root())
	}
	if tr.Cuts() != 3 || tr.Restores() != 3 || tr.CutsAt(PSU) != 3 || tr.RestoresAt(PSU) != 3 {
		t.Fatalf("degenerate counts: cuts=%d restores=%d", tr.Cuts(), tr.Restores())
	}

	tr, err := NewTree(DefaultDomains())
	if err != nil {
		t.Fatal(err)
	}
	rack, leaf := tr.Nodes(Rack)[1], tr.Leaves()[0]
	tr.CutNode(tr.Root())
	tr.CutNode(rack)
	tr.CutNode(leaf)
	tr.CutNode(leaf)
	tr.RestoreNode(leaf)
	tr.RestoreNode(leaf)
	tr.RestoreNode(leaf) // a restore with no cut left still counts
	tr.RestoreNode(tr.Root())
	if tr.Cuts() != 4 || tr.Restores() != 4 {
		t.Fatalf("totals: cuts=%d restores=%d, want 4 and 4", tr.Cuts(), tr.Restores())
	}
	want := map[Level][2]int{Room: {1, 1}, Rack: {1, 0}, Enclosure: {0, 0}, PSU: {2, 3}}
	for l, w := range want {
		if c, r := tr.CutsAt(l), tr.RestoresAt(l); c != w[0] || r != w[1] {
			t.Errorf("%s: cuts=%d restores=%d, want %d and %d", l, c, r, w[0], w[1])
		}
	}
	if rack.Powered() || !leaf.Powered() {
		t.Errorf("rack powered=%v leaf powered=%v after restores, want false and true", rack.Powered(), leaf.Powered())
	}
}

// scriptedConfig is a small fleet with one scripted cut, sized so a single
// PSU cut declares a failure and triggers a spare rebuild.
func scriptedConfig(script []CutEvent, spares int) Config {
	return Config{
		Domains:   DomainConfig{Racks: 2, EnclosuresPerRack: 2, PSUsPerEnclosure: 2},
		Arrays:    4,
		GroupSize: 4,
		Spares:    spares,
		Member:    MemberProfile{Pages: 1024},
		Rebuild:   RebuildPolicy{Delay: sim.Second},
		Faults:    FaultPlan{Script: script},
		Duration:  20 * sim.Second,
	}
}

func TestSpareRebuildAfterPSUCut(t *testing.T) {
	cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: PSU, Index: 0, Outage: 5 * sim.Second}}, 2)
	st, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeclaredFailures == 0 {
		t.Fatal("5s outage with 1s grace declared no failures")
	}
	if st.SpareTakes == 0 {
		t.Error("no spare was taken despite 2 standby spares")
	}
	if st.RebuildCompleted == 0 {
		t.Error("no rebuild completed inside the horizon")
	}
	if st.RebuildReadBytes == 0 || st.RebuildWriteBytes == 0 {
		t.Errorf("rebuild traffic not measurable: reads=%d writes=%d", st.RebuildReadBytes, st.RebuildWriteBytes)
	}
	if st.DownTime != 0 {
		t.Errorf("single PSU cut caused %v down time; placement should keep groups degraded only", st.DownTime)
	}
	if st.LossEvents != 0 || st.BytesLost != 0 {
		t.Errorf("single-bay failures lost data: events=%d bytes=%d", st.LossEvents, st.BytesLost)
	}
	if st.CutsByLevel["psu"] != 1 {
		t.Errorf("cuts_by_level[psu] = %d, want 1", st.CutsByLevel["psu"])
	}
}

func TestTransientOutageRecovers(t *testing.T) {
	cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: PSU, Index: 0, Outage: 200 * sim.Millisecond}}, 2)
	cfg.Rebuild.Delay = 5 * sim.Second // outage well inside the grace window
	st, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeclaredFailures != 0 {
		t.Errorf("transient outage declared %d failures", st.DeclaredFailures)
	}
	if st.TransientRecoveries == 0 {
		t.Error("no transient recoveries recorded")
	}
	if st.SpareTakes != 0 {
		t.Errorf("transient outage consumed %d spares", st.SpareTakes)
	}
}

func TestDoubleFailureLosesData(t *testing.T) {
	// A rack cut downs every bay of the groups in that rack; with a grace
	// window shorter than the outage, redundancy is exceeded and the group
	// must charge a loss and restore from backup.
	cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: Rack, Index: 0, Outage: 10 * sim.Second}}, 0)
	cfg.Duration = 40 * sim.Second
	st, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.LossEvents == 0 || st.BytesLost == 0 {
		t.Fatalf("rack-wide outage beyond grace lost nothing: events=%d bytes=%d", st.LossEvents, st.BytesLost)
	}
	if st.DownTime == 0 {
		t.Error("rack cut caused no down time")
	}
	if st.DurabilityNines >= NinesCap {
		t.Errorf("durability nines = %v despite data loss", st.DurabilityNines)
	}
}

// TestParityTwoSurvivesDoubleFailure pins the m+k loss rule: an enclosure
// cut downs exactly two bays of every group in its rack (placement puts
// one bay per PSU leaf), which exceeds a Parity=1 group's redundancy but
// stays inside a Parity=2 group's.
func TestParityTwoSurvivesDoubleFailure(t *testing.T) {
	script := []CutEvent{{At: sim.Time(2 * sim.Second), Level: Enclosure, Index: 0, Outage: 10 * sim.Second}}
	base := scriptedConfig(script, 0)
	base.Duration = 40 * sim.Second

	st5, err := Run(base, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st5.LossEvents == 0 || st5.DownTime == 0 {
		t.Fatalf("parity=1 fleet survived a two-bay outage: losses=%d down=%v", st5.LossEvents, st5.DownTime)
	}

	raid6 := base
	raid6.Parity = 2
	st6, err := Run(raid6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st6.Parity != 2 {
		t.Fatalf("stats parity %d, want 2", st6.Parity)
	}
	if st6.LossEvents != 0 || st6.BytesLost != 0 {
		t.Fatalf("parity=2 fleet lost data under two-bay outage: events=%d bytes=%d", st6.LossEvents, st6.BytesLost)
	}
	if st6.DownTime != 0 {
		t.Fatalf("parity=2 fleet went down under two-bay outage: %v", st6.DownTime)
	}
	if st6.DegradedTime == 0 {
		t.Fatal("parity=2 fleet recorded no degraded time despite the outage")
	}
	if st6.RebuildCompleted == 0 {
		t.Fatal("parity=2 fleet completed no resilver after power returned")
	}
}

func TestNinesDecreaseWithCutLevel(t *testing.T) {
	run := func(level Level) *Stats {
		cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: level, Index: 0, Outage: 5 * sim.Second}}, 2)
		st, err := Run(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	psu, rack, room := run(PSU), run(Rack), run(Room)
	if !(psu.AvailabilityNines > rack.AvailabilityNines) {
		t.Errorf("psu nines %v not > rack nines %v", psu.AvailabilityNines, rack.AvailabilityNines)
	}
	if !(rack.AvailabilityNines > room.AvailabilityNines) {
		t.Errorf("rack nines %v not > room nines %v", rack.AvailabilityNines, room.AvailabilityNines)
	}
}

func TestSimDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 10 * sim.Second
	a, err := Run(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed diverged:\n%s\n%s", ja, jb)
	}
	c, err := Run(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds produced identical stats")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Arrays: -1},
		{GroupSize: 1},
		{GroupSize: 4, Parity: 4},
		{Parity: -1},
		{Spares: -2},
		{Faults: FaultPlan{Script: []CutEvent{{Level: Level(9), Outage: sim.Second}}}},
	}
	for i, c := range bad {
		if err := c.WithDefaults().Validate(); err == nil {
			t.Errorf("config %d validated despite bad field", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}
