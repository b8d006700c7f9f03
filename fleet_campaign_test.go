package powerfail_test

import (
	"context"
	"strings"
	"testing"

	"powerfail"
)

// runFleetFigure executes the fleet catalog at a small scale and fails on
// any item error.
func runFleetFigure(t *testing.T, parallelism int) *powerfail.CampaignResult {
	t.Helper()
	items := smallItems(t, "fleet", 0.02)
	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(parallelism),
	).Run(context.Background())
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	if out.Completed != len(items) {
		t.Fatalf("completed %d, want %d", out.Completed, len(items))
	}
	return out
}

// TestFleetFigureCoverage: every advertised point of the fleet figure ran
// with cuts landing at the level its label names, and the spare-equipped
// PSU points moved real rebuild traffic through the block layer.
func TestFleetFigureCoverage(t *testing.T) {
	out := runFleetFigure(t, 4)
	domsSeen := map[string]bool{}
	levelsSeen := map[string]bool{}
	for _, res := range out.Results {
		parts := strings.Split(res.Item.Label, "/")
		if len(parts) != 3 {
			t.Fatalf("label shape changed: %q", res.Item.Label)
		}
		domsSeen[parts[0]] = true
		levelsSeen[parts[2]] = true

		s := res.Report.Fleet
		if s.Cuts == 0 {
			t.Errorf("%s: no cuts fired", res.Item.Label)
		}
		if got := s.CutsByLevel[parts[2]]; got != s.Cuts {
			t.Errorf("%s: %d/%d cuts landed at level %s", res.Item.Label, got, s.Cuts, parts[2])
		}
		if res.Report.Source != "fleet" {
			t.Errorf("%s: source = %q", res.Item.Label, res.Report.Source)
		}
		if parts[1] == "s4" && parts[2] == "psu" {
			if s.SpareTakes == 0 {
				t.Errorf("%s: spares never took over", res.Item.Label)
			}
			if s.RebuildReadBytes == 0 || s.RebuildWriteBytes == 0 {
				t.Errorf("%s: no rebuild traffic (r=%d w=%d)",
					res.Item.Label, s.RebuildReadBytes, s.RebuildWriteBytes)
			}
		}
	}
	for _, want := range []string{"deep", "flat"} {
		if !domsSeen[want] {
			t.Errorf("figure covers no %q domain points", want)
		}
	}
	for _, want := range []string{"psu", "rack", "room"} {
		if !levelsSeen[want] {
			t.Errorf("figure covers no %q cut-level points", want)
		}
	}
}

// TestFleetNinesOrderingSameSeed: the tentpole acceptance criterion at
// the public API — on one seed, availability nines strictly decrease as
// random cuts climb the tree from PSU to rack to room, because the blast
// radius grows from one bay per group to whole racks to the whole room.
func TestFleetNinesOrderingSameSeed(t *testing.T) {
	nines := make([]float64, 0, 3)
	for _, level := range []powerfail.FleetLevel{powerfail.FleetPSU, powerfail.FleetRack, powerfail.FleetRoom} {
		cfg := powerfail.DefaultFleetConfig()
		cfg.Arrays = 4
		cfg.Spares = 4
		cfg.Member.Pages = 1024
		cfg.Rebuild.Delay = powerfail.Second
		cfg.Faults.Level = level
		cfg.Faults.Count = 3
		cfg.Faults.Outage = 3 * powerfail.Second
		cfg.Duration = 20 * powerfail.Second
		rep, err := powerfail.Run(powerfail.Options{Seed: 9, Fleet: &cfg},
			powerfail.Experiment{Name: "nines-" + level.String()})
		if err != nil {
			t.Fatal(err)
		}
		nines = append(nines, rep.Fleet.AvailabilityNines)
	}
	if !(nines[0] > nines[1] && nines[1] > nines[2]) {
		t.Fatalf("availability nines not strictly decreasing psu→rack→room: %v", nines)
	}
}
