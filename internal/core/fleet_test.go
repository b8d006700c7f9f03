package core

import (
	"context"
	"encoding/json"
	"testing"

	"powerfail/internal/fleet"
	"powerfail/internal/sim"
)

// TestDegenerateTreeEquivalence proves the classic single-PSU platform is
// the degenerate case of the fault-domain tree: a scheduler routed through
// an explicit multi-level single-path tree (room → rack → enclosure → PSU,
// fan-out 1 everywhere, cutting the root) produces a byte-identical report
// to the stock scheduler's one-node tree.
func TestDegenerateTreeEquivalence(t *testing.T) {
	spec := ExperimentSpec{Name: "equiv", Workload: smallWrites(), Faults: 4, RequestsPerFault: 12}

	run := func(mutate func(p *Platform)) *Report {
		p, err := NewPlatform(smallOpts(77))
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(p)
		}
		r, err := NewRunner(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	base := run(nil)
	deep := run(func(p *Platform) {
		tree, err := fleet.NewTree(fleet.DomainConfig{Racks: 1, EnclosuresPerRack: 1, PSUsPerEnclosure: 1})
		if err != nil {
			t.Fatal(err)
		}
		p.Sched = NewFaultSchedulerOverTree(p.Arduino, tree)
	})

	jb, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	jd, err := json.Marshal(deep)
	if err != nil {
		t.Fatal(err)
	}
	if string(jb) != string(jd) {
		t.Fatalf("single-path tree diverged from one-node tree:\n%s\n%s", jb, jd)
	}
	if base.Cuts != spec.Faults || base.Restores != spec.Faults {
		t.Fatalf("cut/restore accounting changed: cuts=%d restores=%d want %d", base.Cuts, base.Restores, spec.Faults)
	}
}

// TestFleetExperimentThroughCore runs the fleet path via the ordinary
// RunExperiment entry point.
func TestFleetExperimentThroughCore(t *testing.T) {
	cfg := fleet.Config{
		Arrays:   4,
		Spares:   2,
		Member:   fleet.MemberProfile{Pages: 1024},
		Rebuild:  fleet.RebuildPolicy{Delay: sim.Second},
		Duration: 20 * sim.Second,
	}
	rep, err := RunExperiment(context.Background(), Options{Seed: 5, Fleet: &cfg}, ExperimentSpec{Name: "fleet-smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != "fleet" {
		t.Errorf("source = %q, want fleet", rep.Source)
	}
	if rep.Fleet == nil {
		t.Fatal("report has no fleet stats")
	}
	if rep.Cuts == 0 || rep.Cuts != rep.Fleet.Cuts {
		t.Errorf("cuts: report=%d fleet=%d", rep.Cuts, rep.Fleet.Cuts)
	}
	if rep.Fleet.Events == 0 || rep.Requests == 0 {
		t.Errorf("fleet ran no work: events=%d requests=%d", rep.Fleet.Events, rep.Requests)
	}
	if len(rep.String()) == 0 {
		t.Error("empty String()")
	}

	// spec.Faults overrides the random plan's cut count.
	rep2, err := RunExperiment(context.Background(), Options{Seed: 5, Fleet: &cfg}, ExperimentSpec{Name: "fleet-smoke", Faults: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fleet.Cuts != 5 {
		t.Errorf("spec.Faults=5 produced %d cuts", rep2.Fleet.Cuts)
	}
}
