package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"powerfail"
)

// childResult is what one benchmark child process measured, printed as
// the last line of its standard output.
type childResult struct {
	Traced bool   `json:"traced"`
	Items  int    `json:"items"`
	Failed int    `json:"failed"`
	Digest string `json:"digest"`
	// Problems lists failed correctness checks.
	Problems []string `json:"problems,omitempty"`

	WallNS int64 `json:"wall_ns"`
	// FirstDispatch is the wall-clock instant (Unix ns) a set-up probe's
	// campaign dispatched its first item.
	FirstDispatch int64   `json:"first_dispatch_unix_ns,omitempty"`
	ItemWallNS    []int64 `json:"item_wall_ns,omitempty"` // untraced campaigns
	Events        uint64  `json:"events"`
	FaultCycles   int64   `json:"fault_cycles"`
	PeakRSSKiB    int64   `json:"peak_rss_kib"`

	JournalBytes int64 `json:"journal_bytes,omitempty"`
	OpenNS       int64 `json:"open_archive_ns,omitempty"`

	// Traced runs only.
	SelfNS        map[string]int64 `json:"self_ns,omitempty"`
	AllocBytes    map[string]int64 `json:"alloc_bytes,omitempty"`
	Counts        map[string]int64 `json:"counts,omitempty"`
	NewPlatformNS []float64        `json:"new_platform_ns,omitempty"`
}

func (r *childResult) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// digest hashes the campaign JSON's per-item results (figure, label, x,
// seed and the full report of every item, in item order). The per-figure
// aggregates of the campaign JSON are computed from these results, and
// wall time is not part of them, so two runs agree on the digest exactly
// when every simulated statistic agrees.
func digest(results []powerfail.CatalogResult) (string, error) {
	b, err := json.Marshal(results)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkResults fills the failure count, the digest, the event and
// fault-cycle totals, and checks each report against its spec.
func (r *childResult) checkResults(results []powerfail.CatalogResult) {
	r.Items = len(results)
	for _, res := range results {
		if res.Err != nil || res.Report == nil {
			r.Failed++
			r.problem("item %s/%s: %v", res.Item.Figure, res.Item.Label, res.Err)
			continue
		}
		rep := res.Report
		r.Events += rep.Events
		if rep.Fleet != nil {
			r.FaultCycles += int64(rep.Fleet.Cuts)
			if rep.Fleet.Cuts == 0 {
				r.problem("item %s/%s: fleet injected no cuts", res.Item.Figure, res.Item.Label)
			}
			continue
		}
		r.FaultCycles += int64(rep.Faults)
		if rep.Faults != res.Item.Spec.Faults {
			r.problem("item %s/%s: %d fault cycles, spec asks %d",
				res.Item.Figure, res.Item.Label, rep.Faults, res.Item.Spec.Faults)
		}
	}
	if r.Events == 0 {
		r.problem("no simulator events")
	}
	d, err := digest(results)
	if err != nil {
		r.problem("digest: %v", err)
	}
	r.Digest = d
}

// openArchive opens the run archive at path, timing the open and
// recording the archive's size. It returns nil when the archive does not
// open.
func (r *childResult) openArchive(path string, tr *tracer) *powerfail.RunArchive {
	id := tr.begin("OpenRunArchive", "")
	t0 := time.Now()
	a, err := powerfail.OpenRunArchive(path)
	r.OpenNS = int64(time.Since(t0))
	tr.end(id)
	if err != nil {
		r.problem("open run archive: %v", err)
		return nil
	}
	if fi, err := os.Stat(path); err == nil {
		r.JournalBytes = fi.Size()
	}
	return a
}

// checkArchive checks that a run archive holds every item's report byte
// for byte.
func (r *childResult) checkArchive(a *powerfail.RunArchive, results []powerfail.CatalogResult) {
	if a.Final == nil {
		r.problem("run archive has no final record")
	}
	if len(a.Items) != len(results) {
		r.problem("run archive holds %d items, campaign ran %d", len(a.Items), len(results))
	}
	for _, res := range results {
		rec := a.Lookup(powerfail.ItemKey(res.Item))
		want, err := json.Marshal(res.Report)
		if rec == nil || err != nil || !bytes.Equal(rec.Report, want) {
			r.problem("run archive report of %s/%s differs from the run's", res.Item.Figure, res.Item.Label)
		}
	}
}

// newCampaign plans the workload's campaign as a sweep user would: 2
// workers, the base seed, progress reporting and, when journal is set, a
// run archive.
func newCampaign(w workload, items []powerfail.CatalogItem, seed uint64, journal string, progress func(powerfail.CatalogResult)) *powerfail.Campaign {
	opts := []powerfail.CampaignOption{
		powerfail.WithParallelism(workers),
		powerfail.WithBaseSeed(seed),
		powerfail.WithProgress(progress),
	}
	if journal != "" {
		opts = append(opts, powerfail.WithJournal(journal, powerfail.NewRunManifest("perfbench", w.name, w.scale)))
	}
	return powerfail.NewCampaign(items, opts...)
}

// runCampaign runs the workload once through Campaign.Run, the way a
// sweep user does, with tracing off.
func runCampaign(w workload, seed uint64, journal string) *childResult {
	r := &childResult{}
	items, err := w.items(nil)
	if err != nil {
		r.problem("items: %v", err)
		return r
	}
	c := newCampaign(w, items, seed, journal, func(res powerfail.CatalogResult) {
		r.ItemWallNS = append(r.ItemWallNS, int64(res.Wall))
	})
	t0 := time.Now()
	out, err := c.Run(context.Background())
	r.WallNS = int64(time.Since(t0))
	// Peak RSS is the campaign's, read before the benchmark's own checks.
	r.PeakRSSKiB = peakRSSKiB()
	if err != nil {
		r.problem("campaign: %v", err)
	}
	if out == nil {
		return r
	}
	r.checkResults(out.Results)
	if journal != "" {
		if a := r.openArchive(journal, nil); a != nil {
			r.checkArchive(a, out.Results)
		}
	}
	return r
}

// runSetup measures set-up alone: it builds the workload's items and
// starts its campaign (journal included) under a cancelled context, so the
// campaign dispatches every item and runs none. FirstDispatch is the
// instant the first item came back.
func runSetup(w workload, seed uint64, journal string) *childResult {
	r := &childResult{}
	items, err := w.items(nil)
	if err != nil {
		r.problem("items: %v", err)
		return r
	}
	c := newCampaign(w, items, seed, journal, func(powerfail.CatalogResult) {
		if r.FirstDispatch == 0 {
			r.FirstDispatch = time.Now().UnixNano()
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _ := c.Run(ctx)
	if out == nil || out.Cancelled != len(items) {
		r.problem("set-up probe: campaign did not dispatch every item")
	}
	return r
}

// runTraced runs the workload's items through the benchmark's own calls into
// NewPlatform, NewRunner and Runner.Run (RunContext for fleet items), on
// the same number of workers as the campaign. The CPU and allocation
// profiles both cover the items and the archive read, and nothing the
// benchmark does before or after (building, planning and keying the items,
// and checking their results). It records a span around each call and
// reads each layer's counters from the platform after the item ran. archive, when set, is a run archive an
// untraced run of the same seed wrote; the traced reports must match it
// byte for byte.
func runTraced(w workload, seed uint64, archive, spansPath string) *childResult {
	r := &childResult{Traced: true}
	tr := newTracer()
	items, err := w.items(tr)
	if err != nil {
		r.problem("items: %v", err)
		return r
	}
	items = plan(items, seed)
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = powerfail.ItemKey(it)
	}

	allocsBefore := allocsByLayer(r)
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		r.problem("cpu profile: %v", err)
		return r
	}
	results := make([]powerfail.CatalogResult, len(items))
	counts := make([]map[string]int64, len(items))
	idx := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], counts[i] = runItem(items[i], keys[i], tr)
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	r.WallNS = int64(time.Since(t0))
	var a *powerfail.RunArchive
	if archive != "" {
		a = r.openArchive(archive, tr)
	}
	pprof.StopCPUProfile()
	r.AllocBytes = allocsByLayer(r)
	for l, v := range allocsBefore {
		r.AllocBytes[l] -= v
	}
	r.SelfNS = attributeProfile(r, cpu.Bytes(), "cpu")

	r.checkResults(results)
	if a != nil {
		r.checkArchive(a, results)
	}

	r.Counts = map[string]int64{}
	for _, c := range counts {
		for k, v := range c {
			r.Counts[k] += v
		}
	}
	r.NewPlatformNS = tr.durations("NewPlatform")
	if err := tr.write(spansPath); err != nil {
		r.problem("write spans: %v", err)
	}
	return r
}

// allocsByLayer attributes the bytes the process has allocated so far to
// layers. It forces a GC first, because the allocation profile is as of
// the last one.
func allocsByLayer(r *childResult) map[string]int64 {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		r.problem("alloc profile: %v", err)
	}
	m := attributeProfile(r, b.Bytes(), "alloc_space")
	if m == nil {
		m = map[string]int64{}
	}
	return m
}

func attributeProfile(r *childResult, data []byte, valueType string) map[string]int64 {
	p, err := parseProfile(data)
	if err != nil {
		r.problem("%v", err)
		return nil
	}
	m, err := p.attribute(valueType)
	if err != nil {
		r.problem("%v", err)
	}
	return m
}

// runItem runs one planned catalog item through the public API with a
// span around each call, keyed by the item's key, and returns its result
// and layer counters.
func runItem(it powerfail.CatalogItem, key string, tr *tracer) (powerfail.CatalogResult, map[string]int64) {
	res := powerfail.CatalogResult{Item: it}
	c := map[string]int64{}
	if it.Opts.Fleet != nil {
		id := tr.begin("RunContext", key)
		res.Report, res.Err = powerfail.RunContext(context.Background(), it.Opts, it.Spec)
		tr.end(id)
		reportCounts(c, res.Report)
		return res, c
	}
	id := tr.begin("NewPlatform", key)
	p, err := powerfail.NewPlatform(it.Opts)
	tr.end(id)
	if err != nil {
		res.Err = err
		return res, c
	}
	id = tr.begin("NewRunner", key)
	runner, err := powerfail.NewRunner(p, it.Spec)
	tr.end(id)
	if err != nil {
		res.Err = err
		return res, c
	}
	id = tr.begin("Runner.Run", key)
	res.Report, res.Err = runner.Run(context.Background())
	tr.end(id)
	reportCounts(c, res.Report)
	platformCounts(c, p)
	if res.Report != nil {
		c["core.requests"] += int64(res.Report.Requests)
	}
	return res, c
}

// emptyLike returns an empty slice of x's type, so the benchmark can collect
// values whose types live in powerfail/internal and cannot be named here.
func emptyLike[T any](T) []T { return nil }

// platformCounts reads the device-stack counters of a platform after its
// experiment ran: the host block layer, every SSD (alone or as an array
// member or cache) with its FTL, flash chip and DRAM cache, every HDD, and
// the array.
func platformCounts(c map[string]int64, p *powerfail.Platform) {
	hs := p.Host.Stats()
	c["blockdev.submitted"] += hs.Submitted
	c["blockdev.splits"] += hs.Splits

	ssds := emptyLike(p.SSD)
	hdds := emptyLike(p.HDD)
	if p.SSD != nil {
		ssds = append(ssds, p.SSD)
	}
	if p.HDD != nil {
		hdds = append(hdds, p.HDD)
	}
	if p.Array != nil {
		ssds = append(ssds, p.Array.SSDs()...)
		if b := p.Array.Backing(); b != nil {
			hdds = append(hdds, b)
		}
		as := p.Array.Stats()
		c["array.parity_rmws"] += as.ParityRMWs
		c["array.reconstructions"] += as.Reconstructions
	}
	for _, d := range ssds {
		st := d.Stats()
		c["ssd.host_writes"] += st.HostWrites
		c["ssd.cache_stalls"] += st.CacheStalls
		fs := d.FTL().Stats()
		c["ftl.writes_mapped"] += fs.WritesMapped
		c["ftl.gc_collections"] += fs.GCCollections
		c["ftl.crashes"] += fs.Crashes
		cs := d.Chip().Stats()
		c["flash.programs"] += cs.Programs
		c["flash.erases"] += cs.Erases
		ds := d.CacheStats()
		c["dram.hits"] += ds.Hits
		c["dram.misses"] += ds.Misses
		c["dram.evictions"] += ds.Evictions
	}
	for _, d := range hdds {
		c["hdd.writes"] += d.Stats().Writes
	}
}

// reportCounts reads the counters a report carries.
func reportCounts(c map[string]int64, rep *powerfail.Report) {
	if rep == nil {
		return
	}
	c["sim.events"] += int64(rep.Events)
	if t := rep.TxnStats; t != nil {
		c["txn.committed"] += t.Committed
		c["txn.scan_pages"] += t.ScanPages
	}
	if t := rep.TraceStats; t != nil {
		c["trace.replayed"] += t.Replayed
	}
	if f := rep.Fleet; f != nil {
		c["fleet.rebuild_windows"] += int64(f.RebuildWindows)
		c["fleet.rebuild_bytes"] += f.RebuildReadBytes + f.RebuildWriteBytes
	}
	if o := rep.Obs; o != nil {
		c["obs.trace_events"] += int64(o.TraceEvents)
		c["obs.trace_dropped"] += int64(o.TraceDropped)
	}
}

// peakRSSKiB reads the process's peak resident set (VmHWM).
func peakRSSKiB() int64 { return procStatusKiB("/proc/self/status", "VmHWM:") }
