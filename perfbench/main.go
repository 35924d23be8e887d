// Command perfbench is the repository benchmark. It drives the simd
// serving stack — service.NewHandler behind httptest servers, spoken to
// through client.Client, and for the cluster workload three managers
// joined over cluster.MemNetwork — with seeded requests, checks every
// response body against golden SHA-256 digests, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload cold-report --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separately traced run
// (see LAYERS.md for what each measures and which end-to-end metric it
// moves). A metadata line precedes the result line. --regen-golden
// rewrites the golden digests from a standalone manager with serial
// replay.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nproc is the host's usable CPU count. The process runs with
// GOMAXPROCS = nproc, each engine gets nproc workers, and no workload
// uses more than nproc concurrent client requests.
var nproc = runtime.NumCPU()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *config) (*runStats, error){
	"cold-report":   runColdReport,
	"replay-sweep":  runReplaySweep,
	"serve-cluster": runServeCluster,
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	clients  int
	rate     float64
	golden   *golden
	log      io.Writer
}

// sample is one attempted request.
type sample struct {
	class  string
	lat    time.Duration
	ok     bool
	points int
}

// runStats is what a workload run hands back.
type runStats struct {
	setups   []time.Duration
	samples  []sample
	wall     time.Duration
	cpu      time.Duration // process CPU time (user + system) over the measured phase
	alloc    uint64        // TotalAlloc delta over the measured phase
	heapLive uint64        // HeapAlloc after forced GCs at the end
	// windows splits the measured phase into stretches (closed-loop
	// calls, open-loop arrival windows); the timing metrics come from the
	// quieter two thirds of each stratum (quietWindows).
	windows []window
	// tailPerWindow takes the tail in each window and reports their
	// median (the open loop) instead of pooling the windows' samples.
	tailPerWindow bool
	// valid is false when the run cannot be trusted (open-loop generator
	// lag beyond its bound).
	valid  bool
	meta   map[string]any
	layers map[string]float64
	// probe holds the traced run's spans (nil untraced).
	probe *probe
}

func newRunStats() *runStats {
	return &runStats{valid: true, meta: map[string]any{}}
}

// phase brackets a measured phase.
type phase struct {
	start          time.Time
	alloc0         uint64
	cpu0           time.Duration
	steal0, total0 uint64
}

func beginPhase() phase {
	runtime.GC()
	steal, total := hostCPU()
	return phase{start: time.Now(), alloc0: totalAlloc(), cpu0: processCPU(), steal0: steal, total0: total}
}

// end records wall time, allocation and the live heap. keep holds what
// must stay reachable through the final collections (the stacks and
// their caches). The second collection empties the sync.Pool victim
// caches, so pooled buffers do not count as live.
func (ph phase) end(rs *runStats, keep ...any) {
	rs.wall = time.Since(ph.start)
	rs.cpu = processCPU() - ph.cpu0
	rs.alloc = totalAlloc() - ph.alloc0
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rs.heapLive = m.HeapAlloc
	runtime.KeepAlive(keep)
	if steal, total := hostCPU(); total > ph.total0 {
		rs.meta["host_steal_frac"] = round6(float64(steal-ph.steal0) / float64(total-ph.total0))
	}
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cold-report, replay-sweep or serve-cluster")
	seed := fs.Uint64("seed", 1, "seed of the request draws")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	clients := fs.Int("clients", 0, "concurrent client requests (0: the workload's default; at most nproc)")
	rate := fs.Float64("rate", 0, "serve-cluster: offered rate in requests per second (0: the benchmark's fixed rate)")
	dir := fs.String("dir", "perfbench", "the benchmark directory (golden digests)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps")
	regen := fs.Bool("regen-golden", false, "rewrite the golden digests (of --workload, or of all workloads) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(nproc)
	ctx := context.Background()

	if *regen {
		if err := regenGolden(ctx, *dir, *workload, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: cold-report, replay-sweep, serve-cluster)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *clients > nproc {
		fmt.Fprintf(stderr, "perfbench: --clients %d exceeds nproc %d\n", *clients, nproc)
		return 2
	}
	g, err := loadGolden(*dir, *workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := &config{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, clients: *clients, rate: *rate, golden: g, log: stderr,
	}
	rs, err := drive(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if p := rs.probe; p != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := p.writeSpans(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		rs.meta["spans_file"] = path
		rs.meta["spans_dropped"] = p.dropped
	}
	res := assemble(cfg, rs)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": rs.meta}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// assemble turns a run's samples into the result line and fills the
// run metadata.
func assemble(cfg *config, rs *runStats) result {
	res := result{Metrics: map[string]metric{}}
	byClass := map[string][]float64{}
	for _, s := range rs.samples {
		res.Attempted++
		if !s.ok {
			res.Failed++
			continue
		}
		byClass[s.class] = append(byClass[s.class], ms(s.lat))
	}
	diverged := cfg.golden.divergedKeys()
	res.Correct = res.Attempted > 0 && res.Failed == 0 && rs.valid && len(diverged) == 0

	windows := rs.windows
	if len(windows) == 0 {
		windows = []window{{lo: 0, hi: len(rs.samples), dur: rs.wall}}
	}
	used := quietWindows(windows)
	all := timings(rs.samples, windows, rs.tailPerWindow)
	quiet := timings(rs.samples, used, rs.tailPerWindow)
	setups := make([]float64, len(rs.setups))
	for i, d := range rs.setups {
		setups[i] = d.Seconds()
	}
	if cfg.traced {
		for name, v := range rs.layers {
			res.Metrics[name] = metric{Value: v, Unit: layerUnit(name)}
		}
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["latency_p50_ms"] = metric{quiet.p50, "ms"}
		res.Metrics["latency_tail_ms"] = metric{quiet.tail, "ms"}
		res.Metrics["throughput_rps"] = metric{quiet.rps, "1/s"}
		res.Metrics["points_per_s"] = metric{quiet.pps, "1/s"}
		res.Metrics["alloc_mb_per_req"] = metric{ratio(mb(rs.alloc), float64(res.Attempted)), "MB"}
		res.Metrics["cpu_ms_per_req"] = metric{ratio(ms(rs.cpu), float64(res.Attempted)), "ms"}
		res.Metrics["heap_live_mb"] = metric{mb(rs.heapLive), "MB"}
		res.Metrics["success_frac"] = metric{ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)), "ratio"}
	}

	m := rs.meta
	m["workload"] = cfg.workload
	m["seed"] = cfg.seed
	m["seconds"] = cfg.dur.Seconds()
	m["trace"] = cfg.traced
	m["nproc"] = nproc
	m["gomaxprocs"] = runtime.GOMAXPROCS(0)
	m["go_version"] = runtime.Version()
	m["cpu_model"] = cpuModel()
	m["samples"] = quiet.n
	m["samples_all"] = all.n
	m["failed"] = res.Failed
	m["tail_percentile"] = round6(quiet.tailPct)
	m["tail_samples_beyond"] = tailBeyond
	m["tail_supported"] = quiet.tailOK
	m["tail_per_window"] = rs.tailPerWindow
	m["windows"] = len(windows)
	m["windows_used"] = len(used)
	m["windows_steal_used"] = round6(meanSteal(used))
	m["windows_steal_all"] = round6(meanSteal(windows))
	m["all_windows"] = map[string]any{
		"latency_p50_ms": round6(all.p50), "latency_tail_ms": round6(all.tail),
		"throughput_rps": round6(all.rps), "points_per_s": round6(all.pps),
	}
	m["setup_runs"] = len(rs.setups)
	m["setup_s_each"] = setups
	m["wall_s"] = round6(rs.wall.Seconds())
	m["valid"] = rs.valid
	if len(diverged) > 0 {
		if len(diverged) > 20 {
			diverged = append(diverged[:20], fmt.Sprintf("... %d more", len(diverged)-20))
		}
		m["diverged"] = diverged
		for _, k := range diverged {
			fmt.Fprintf(cfg.log, "perfbench: request %s diverged from its golden digest or failed\n", k)
		}
	}
	classes := map[string]any{}
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		classes[c] = map[string]any{"n": len(byClass[c]), "p50_ms": round6(median(byClass[c]))}
	}
	m["classes"] = classes
	m["tail_classes"] = quiet.tailClasses
	return res
}

// cpuModel reads the CPU model name from the kernel's cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// processCPU returns the CPU time the process has used, user and
// system. Unlike wall time it does not count time the host's other
// tenants took from this machine.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the host's cumulative CPU time and the part of it that
// was stolen: time this machine's CPUs were ready to run while the
// hypervisor ran something else. On a shared host it moves every
// timing, so runs record their share of it. Both are 0 where the
// kernel does not report them.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user .. steal; guest time is inside user
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// tailClasses counts the classes of the successful samples at and
// above the tail order statistic: what the tail latency is made of.
func tailClasses(ok []sample) map[string]int {
	ok = append([]sample(nil), ok...)
	sort.Slice(ok, func(i, j int) bool { return ok[i].lat > ok[j].lat })
	out := map[string]int{}
	for _, s := range ok[:min(len(ok), tailBeyond+1)] {
		out[s.class]++
	}
	return out
}
