package main

import (
	"context"
	"fmt"

	"powerfail"
)

// workers is the campaign parallelism of every workload: one worker per
// core of the 2-core machine the benchmark was defined on. It is fixed
// rather than read from the host so figures stay comparable across hosts.
const workers = 2

// A workload is one campaign over catalog figures. Every item builds a
// fresh platform, so the modelled DRAM caches, FTL mapping tables and
// flash arrays start empty in every item; nothing is warmed up.
type workload struct {
	name    string
	figures []string
	scale   float64
	// copies repeats the figure list, so one campaign covers that many
	// derived seeds per catalog point.
	copies int
	// obs turns on Options.Obs (metrics and trace ring) for every item.
	obs bool
	// journal writes the campaign to a run archive.
	journal bool
	// fleetSize rebuilds fleet items at datacenter size.
	fleetSize bool
}

var workloads = []workload{
	{
		name:    "paper",
		figures: []string{"tablei", "window", "fig5", "fig6", "seqrand", "fig7", "fig8", "fig9", "ablation"},
		scale:   0.05,
		copies:  1,
	},
	{
		name:    "composite",
		figures: []string{"array", "erasure", "cache", "txn", "txn-streams", "trace"},
		scale:   0.2,
		copies:  3,
		obs:     true,
		journal: true,
	},
	{
		name:      "fleet",
		figures:   []string{"fleet"},
		scale:     1,
		copies:    1,
		fleetSize: true,
	},
}

// Datacenter fleet size: groups of 4 as in the figure, but 100 of them,
// with 8 standby spares wherever the figure has spares.
const (
	fleetArrays = 100
	fleetSpares = 8
)

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have paper, composite, fleet)", name)
}

// items builds the workload's catalog items through powerfail.ItemsFor,
// timing each call as a span. Seeds are still the catalog's own; the
// campaign's base seed replaces them.
func (w workload) items(tr *tracer) ([]powerfail.CatalogItem, error) {
	var items []powerfail.CatalogItem
	for _, fig := range w.figures {
		id := tr.begin("ItemsFor", fig)
		its, err := powerfail.ItemsFor(fig, w.scale)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		items = append(items, its...)
	}
	if w.fleetSize {
		for i := range items {
			cfg := *items[i].Opts.Fleet
			cfg.Arrays = fleetArrays
			if cfg.Spares > 0 {
				cfg.Spares = fleetSpares
			}
			items[i].Opts.Fleet = &cfg
		}
	}
	if w.obs {
		cfg := powerfail.DefaultObsConfig()
		for i := range items {
			items[i].Opts.Obs = &cfg
		}
	}
	out := make([]powerfail.CatalogItem, 0, len(items)*w.copies)
	for c := 0; c < w.copies; c++ {
		out = append(out, items...)
	}
	return out, nil
}

// plan returns items with the seeds a campaign under WithBaseSeed(seed)
// gives them. It asks the campaign itself: a Run under an already
// cancelled context executes nothing but still reports every item with
// its derived seed, so the traced run executes exactly the experiments the
// untraced campaign runs.
func plan(items []powerfail.CatalogItem, seed uint64) []powerfail.CatalogItem {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _ := powerfail.NewCampaign(items, powerfail.WithBaseSeed(seed)).Run(ctx)
	planned := make([]powerfail.CatalogItem, len(out.Results))
	for i, r := range out.Results {
		planned[i] = r.Item
	}
	return planned
}

// itemCount is the number of items one campaign of w runs.
func (w workload) itemCount() (int, error) {
	items, err := w.items(nil)
	return len(items), err
}
