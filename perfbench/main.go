// Command perfbench is the repository benchmark: it runs one workload of
// catalog campaigns through the public powerfail API, checks the
// simulated output against recorded digests, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON line.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// Every campaign runs in a fresh child process, as each sweep does, under
// a wall-clock and a memory ceiling. See NOTES.md for the metrics, the
// workloads and what each layer metric should move.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// digests.json maps workload → seed → the digest of its campaign results
// (see digest). A deliberate model change re-records it with -record and
// says so.
//
//go:embed digests.json
var digestsJSON []byte

// The benchmark runs from the root of a checkout: it writes journals and
// spans under outPath, and -record rewrites digestsPath.
const (
	outPath     = ".bench_build"
	digestsPath = "perfbench/digests.json"
)

const (
	// childWall and childRSSKiB are the runaway guard's ceilings for one
	// campaign; the slowest workload takes under 10 s and 300 MB.
	childWall   = 120 * time.Second
	childRSSKiB = 1 << 20
	// runLimit bounds a whole run, children included.
	runLimit = 170 * time.Second
	// setupProbes is how many set-up-only children a run starts before
	// measuring; setup_s is their median. The dispatch instants of
	// campaign children are not used: on a 2-vCPU VM they scatter over
	// 2-20 ms where probes stay within 1.5-3 ms.
	setupProbes = 15
	// recordedSeeds is how many seeds, 0 up, -record records per workload.
	recordedSeeds = 64
)

func main() {
	name := flag.String("workload", "", "workload: paper, composite or fleet")
	seed := flag.Uint64("seed", 1, "base seed of the workload's campaigns (WithBaseSeed)")
	seconds := flag.Int("seconds", 10, "measure for this many seconds (at least one campaign runs)")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	record := flag.Bool("record", false, "record the workload's digests of seeds 0-63 into "+digestsPath+" and exit")
	child := flag.String("child", "", "run one child in this process: campaign, traced or setup (set by the parent)")
	journal := flag.String("journal", "", "child: run archive the campaign journals to")
	archive := flag.String("archive", "", "child: run archive the traced reports must match")
	spans := flag.String("spans", "", "child: file the traced run writes its spans to")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	switch *child {
	case "campaign":
		emit(runCampaign(w, *seed, *journal))
		return
	case "traced":
		emit(runTraced(w, *seed, *archive, *spans))
		return
	case "setup":
		emit(runSetup(w, *seed, *journal))
		return
	case "":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child mode %q\n", *child)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds > 120 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must leave the run within its 170 s limit; use at most 120")
		os.Exit(2)
	}
	outDir, err := filepath.Abs(outPath)
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record {
		if err := recordDigests(exe, outDir, w); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	r := &run{w: w, seed: *seed, exe: exe, out: outDir, start: time.Now()}
	probes := setupProbes
	if *trace == 1 {
		probes = 0 // setup_s is an end-to-end metric, not reported when tracing
	}
	r.measure(time.Duration(*seconds)*time.Second, probes, *trace == 1)
	res := r.result(*trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func emit(r *childResult) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run is one benchmark invocation: a series of child campaigns.
type run struct {
	w     workload
	seed  uint64
	exe   string
	out   string
	start time.Time

	untraced []*childResult
	traced   []*childResult
	setupS   []float64
	// attempted and failed count items; a killed child fails every item
	// it was given.
	attempted, failed int
	problems          []string
	journals          int
}

// spawn runs one child under the runaway guard and returns its result,
// or nil (with a problem recorded) when it was killed or printed none.
func (r *run) spawn(mode string, extra ...string) *childResult {
	args := append([]string{"-child", mode, "-workload", r.w.name, "-seed", strconv.FormatUint(r.seed, 10)}, extra...)
	cmd := exec.Command(r.exe, args...)
	cmd.Stderr = os.Stderr
	ceiling := min(childWall, runLimit-time.Since(r.start))
	spawned := time.Now()
	out, killed, err := runGuarded(cmd, ceiling, childRSSKiB)
	if killed != "" || err != nil {
		why := killed
		if why == "" {
			why = err.Error()
		}
		r.problems = append(r.problems, fmt.Sprintf("%s child: %s", mode, why))
		if n, err := r.w.itemCount(); err == nil {
			r.attempted += n
			r.failed += n
		}
		return nil
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := new(childResult)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("%s child printed no result: %v", mode, err))
		return nil
	}
	r.attempted += res.Items
	r.failed += res.Failed
	for _, p := range res.Problems {
		r.problems = append(r.problems, mode+" child: "+p)
	}
	if mode == "setup" {
		r.setupS = append(r.setupS, float64(res.FirstDispatch-spawned.UnixNano())/1e9)
		return res
	}
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	fmt.Fprintf(os.Stderr, "perfbench: %s child: wall %.4f s, cpu %.4f s, %d items\n",
		mode, float64(res.WallNS)/1e9, cpu.Seconds(), res.Items)
	return res
}

// measure starts probes set-up probes, then runs campaigns back to back
// until d has passed; a traced run alternates untraced and traced
// children. It stops at the first child that fails and never retries it.
func (r *run) measure(d time.Duration, probes int, traced bool) {
	defer os.RemoveAll(r.journalDir())
	for i := 0; i < probes; i++ {
		journal, extra := r.newJournal()
		if r.spawn("setup", extra...) == nil {
			return
		}
		if journal != "" {
			os.Remove(journal)
		}
	}
	for {
		journal, extra := r.newJournal()
		res := r.spawn("campaign", extra...)
		if res == nil {
			return
		}
		r.untraced = append(r.untraced, res)
		if traced {
			spans := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.json", r.w.name, r.seed))
			extra := []string{"-spans", spans}
			if journal != "" {
				extra = append(extra, "-archive", journal)
			}
			res := r.spawn("traced", extra...)
			if res == nil {
				return
			}
			r.traced = append(r.traced, res)
		}
		if journal != "" {
			os.Remove(journal)
		}
		if time.Since(r.start) >= d {
			return
		}
	}
}

// newJournal returns a fresh journal path and the child flag naming it,
// or nothing when the workload does not journal.
func (r *run) newJournal() (string, []string) {
	if !r.w.journal {
		return "", nil
	}
	if err := os.MkdirAll(r.journalDir(), 0o755); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	r.journals++
	journal := filepath.Join(r.journalDir(), fmt.Sprintf("journal-%d.jsonl", r.journals))
	return journal, []string{"-journal", journal}
}

func (r *run) journalDir() string {
	return filepath.Join(r.out, fmt.Sprintf("journals-%d", os.Getpid()))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result checks the children's outputs and computes the metrics.
func (r *run) result(traced bool) result {
	r.checkDigests()
	out := result{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	if len(r.untraced) == 0 || (traced && len(r.traced) == 0) {
		return out
	}
	set := func(name, unit string, v float64) { out.Metrics[name] = metric{v, unit} }
	per := func(f func(c *childResult) float64) float64 {
		vs := make([]float64, len(r.untraced))
		for i, c := range r.untraced {
			vs[i] = f(c)
		}
		return median(vs)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d untraced and %d traced campaigns of %d items, digest %s\n",
		r.w.name, r.seed, len(r.untraced), len(r.traced), r.untraced[0].Items, r.untraced[0].Digest)
	if !traced {
		set("wall_s", "s", per(func(c *childResult) float64 { return float64(c.WallNS) / 1e9 }))
		set("events_per_s", "1/s", per(func(c *childResult) float64 { return float64(c.Events) / (float64(c.WallNS) / 1e9) }))
		set("faultcycles_per_s", "1/s", per(func(c *childResult) float64 { return float64(c.FaultCycles) / (float64(c.WallNS) / 1e9) }))
		set("setup_s", "s", median(r.setupS))
		set("peak_rss_mb", "MiB", per(func(c *childResult) float64 { return float64(c.PeakRSSKiB) / 1024 }))
		return out
	}
	r.layerMetrics(set)
	return out
}

// layerMetrics computes the per-layer metrics: profile attribution and
// span timings from the traced children, their exact counters, and the campaign's own item timings from the untraced
// children.
func (r *run) layerMetrics(set func(name, unit string, v float64)) {
	tracedMedian := func(f func(c *childResult) float64) float64 {
		vs := make([]float64, len(r.traced))
		for i, c := range r.traced {
			vs[i] = f(c)
		}
		return median(vs)
	}
	for _, l := range layers {
		set(l+".self_s", "s", tracedMedian(func(c *childResult) float64 { return float64(c.SelfNS[l]) / 1e9 }))
		set(l+".alloc_mb", "MiB", tracedMedian(func(c *childResult) float64 { return float64(c.AllocBytes[l]) / (1 << 20) }))
	}

	var items []float64
	var busy, nsPerEvent, journalMB, openMS []float64
	var walls []float64
	for _, c := range r.untraced {
		var sum int64
		for _, w := range c.ItemWallNS {
			items = append(items, float64(w)/1e6)
			sum += w
		}
		busy = append(busy, float64(sum)/(workers*float64(c.WallNS)))
		nsPerEvent = append(nsPerEvent, float64(sum)/float64(c.Events))
		journalMB = append(journalMB, float64(c.JournalBytes)/(1<<20))
		openMS = append(openMS, float64(c.OpenNS)/1e6)
		walls = append(walls, float64(c.WallNS))
	}
	set("campaign.item_ms.p50", "ms", median(items))
	set("campaign.item_ms.ptail", "ms", tail(items))
	set("campaign.busy_share", "ratio", median(busy))
	set("sim.host_ns_per_event", "ns", median(nsPerEvent))
	set("runstore.journal_mb", "MiB", median(journalMB))
	set("runstore.open_ms", "ms", median(openMS))
	set("trace_overhead", "ratio", tracedMedian(func(c *childResult) float64 { return float64(c.WallNS) })/median(walls))

	var newPlatform []float64
	for _, c := range r.traced {
		newPlatform = append(newPlatform, c.NewPlatformNS...)
	}
	set("core.new_platform_ms", "ms", median(newPlatform)/1e6)

	counts := r.traced[0].Counts
	for _, name := range []string{
		"core.requests", "sim.events", "blockdev.submitted", "blockdev.splits",
		"ssd.host_writes", "ssd.cache_stalls", "dram.evictions",
		"ftl.writes_mapped", "ftl.gc_collections", "ftl.crashes",
		"flash.programs", "flash.erases", "array.parity_rmws", "array.reconstructions",
		"hdd.writes", "txn.committed", "txn.scan_pages", "trace.replayed",
		"fleet.rebuild_windows", "obs.trace_events", "obs.trace_dropped",
	} {
		set(name, "count", float64(counts[name]))
	}
	set("dram.hit_ratio", "ratio", ratio(counts["dram.hits"], counts["dram.hits"]+counts["dram.misses"]))
	set("ftl.write_amp", "ratio", ratio(counts["flash.programs"], counts["ftl.writes_mapped"]))
	set("fleet.rebuild_mb", "MiB", float64(counts["fleet.rebuild_bytes"])/(1<<20))
}

// checkDigests requires every child of the run to produce one digest, and
// that digest to be the recorded one when the seed has a record. Traced
// children must also agree on every layer counter.
func (r *run) checkDigests() {
	var recorded map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		r.problems = append(r.problems, "digests.json: "+err.Error())
	}
	for _, c := range r.traced {
		if !maps.Equal(c.Counts, r.traced[0].Counts) {
			r.problems = append(r.problems, "traced campaigns disagree on layer counters")
			break
		}
	}
	want := recorded[r.w.name][strconv.FormatUint(r.seed, 10)]
	if want == "" {
		fmt.Fprintf(os.Stderr, "perfbench: no recorded digest for %s seed %d; checking only that all runs agree\n", r.w.name, r.seed)
	}
	for _, c := range append(append([]*childResult(nil), r.untraced...), r.traced...) {
		if want == "" {
			want = c.Digest
		}
		if c.Digest != want {
			kind := "untraced"
			if c.Traced {
				kind = "traced"
			}
			r.problems = append(r.problems, fmt.Sprintf("%s campaign digest %s, want %s", kind, c.Digest, want))
		}
	}
}

// recordDigests runs one campaign per recorded seed and writes the
// digests into the digest file, keeping other workloads' entries.
func recordDigests(exe, outDir string, w workload) error {
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(digestsPath); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", digestsPath, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	got := map[string]string{}
	for s := 0; s < recordedSeeds; s++ {
		r := &run{w: w, seed: uint64(s), exe: exe, out: outDir, start: time.Now()}
		r.measure(0, 0, false)
		if len(r.problems) > 0 || len(r.untraced) == 0 {
			return fmt.Errorf("%s seed %d: %s", w.name, s, strings.Join(r.problems, "; "))
		}
		d := r.untraced[0].Digest
		if old := all[w.name][strconv.Itoa(s)]; old != "" && old != d {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: digest changed from %s\n", w.name, s, old)
		}
		got[strconv.Itoa(s)] = d
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", w.name, s, d)
	}
	all[w.name] = got
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(b, '\n'), 0o644)
}

// median returns the median of vs, or 0 for none (a layer the workload
// never reaches).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of the 50th, 75th, 90th, 95th and 99th
// percentiles (nearest rank) that has at least ten samples beyond it.
func tail(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	out := median(s)
	for _, p := range []float64{0.75, 0.90, 0.95, 0.99} {
		rank := int(math.Ceil(p * float64(len(s))))
		if len(s)-rank < 10 {
			break
		}
		out = s[rank-1]
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
