// Command perfbench is the repository's end-to-end benchmark. It drives
// an in-process avivd compile server, built exactly as cmd/avivd ships
// it (delta engine on with 4096 entries, a 4096-entry bounded cover
// cache, a 512 MiB disk tier), with HTTP/JSON /compile requests sent
// through server.Handler, and checks every response against an
// interpreter oracle that shares no code with the compiler.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// Every run does a fixed, seeded amount of work: the request count is
// the workload's calibrated rate times -seconds, so two runs with the
// same flags send byte-identical request sequences and must report
// identical code size and simulated cycles. With -trace 0 the last
// stdout line carries the end-to-end metrics; with -trace 1 the same
// requests are served, then replayed through each layer's public
// functions under spans (replay.go), and the line carries the
// per-layer metrics (layers.go). Earlier stdout lines describe the host
// and the run.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/metrics"
	"aviv/internal/server"
)

// The shipped avivd configuration (cmd/avivd flag defaults).
const (
	deltaEntries = 4096
	memEntries   = 4096
	diskMaxBytes = 512 << 20
)

// Inputs: bench.MultiBlockSource programs of about 25 blocks of 12 ops
// on the full example architecture.
const (
	blocksPerProgram = 25
	opsPerBlock      = 12
	// setupReps is how many times an untraced run builds a fresh server
	// and cold-compiles the program set; setup_s is their median.
	setupReps = 3
)

var machineText = isdl.ExampleArchFullISDL

// workload is one traffic mix, sent by a single closed-loop client: a
// second client on a 2-vCPU host measured two to three times the
// run-to-run spread, because the two clients and the collector contend
// for the same two processors.
type workload struct {
	name string
	// programs is the size of the program set.
	programs int
	// perSecond is the number of timed requests per second of -seconds,
	// calibrated so a run of the seed commit lasts about -seconds.
	perSecond int
	// replay is how many timed requests the traced run replays.
	replay int
	// restart, when set, restarts the server before every pass over the
	// program set.
	restart bool
	// sources returns the request sources in send order.
	sources func(progs []string, seed int64, n int) []string
}

// roundRobin requests the unchanged program set over and over.
func roundRobin(progs []string, _ int64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = progs[i%len(progs)]
	}
	return out
}

var workloads = []workload{
	{
		// A build client re-requesting an unchanged program set: every
		// block stitches from delta memory, so the front end, layout,
		// printing and JSON do all the work.
		name: "warm-rebuild", programs: 8, perSecond: 70, replay: 120, sources: roundRobin,
	},
	{
		// A developer edit loop: cumulative one-line edits, so a few
		// blocks per request miss every tier and run the covering search,
		// and the disk tier takes the writes.
		name: "edit-loop", programs: 8, perSecond: 20, replay: 50,
		sources: func(progs []string, seed int64, n int) []string {
			cur := append([]string(nil), progs...)
			out := make([]string, n)
			for i := range out {
				p := i % len(cur)
				cur[p] = bench.MutateSource(cur[p], seed*1_000_003+int64(i))
				out[i] = cur[p]
			}
			return out
		},
	},
	{
		// Restarted servers over a program set set-up put on disk: every
		// block is a disk stitch, the tier's read path.
		name: "disk-restart", programs: 8, perSecond: 18, replay: 40, restart: true, sources: roundRobin,
	},
}

func main() {
	name := flag.String("workload", "", "workload: warm-rebuild, edit-loop or disk-restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "run length budget in seconds (sets the request count)")
	traceFlag := flag.Int("trace", 0, "1: replay the requests under spans and report per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload warm-rebuild|edit-loop|disk-restart -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, *seed, *seconds, *traceFlag == 1, work)
	os.RemoveAll(work)
	var out []byte
	if err == nil {
		out, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
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

// info prints a human-readable line ahead of the result line.
func info(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// exchange is one timed request and what came back.
type exchange struct {
	src    string
	body   []byte
	status int
	resp   []byte
	lat    time.Duration
}

// servedNode is one server instance and its HTTP surface.
type servedNode struct {
	srv *server.Server
	h   http.Handler
}

// newServer builds a server over the disk tier in dir, configured as
// cmd/avivd ships it.
func newServer(dir string) (*servedNode, error) {
	disk, err := diskcache.Open(dir, diskMaxBytes)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Options:      aviv.Options{Cache: cover.NewBoundedCache(memEntries), DiskCache: disk},
		Delta:        true,
		DeltaEntries: deltaEntries,
	})
	return &servedNode{srv: srv, h: srv.Handler()}, nil
}

func post(h http.Handler, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

func requestBody(src string) []byte {
	b, err := json.Marshal(server.CompileRequest{Source: src, Machine: machineText})
	if err != nil {
		panic(err) // two strings always marshal
	}
	return b
}

// tierCounts are the counters servers gained during the timed phase.
type tierCounts struct {
	memStitch, diskStitch, recompiled, evictions int64
	diskHits, diskMisses, diskWrites             int64
	deduped, shed                                int64
}

// add accumulates the counters a server gained between two snapshots;
// a nil from is a fresh server.
func (t *tierCounts) add(from *server.StatsResponse, to server.StatsResponse) {
	if from == nil {
		from = &server.StatsResponse{Delta: &metrics.CacheStats{}, Disk: &diskcache.Stats{}}
	}
	t.memStitch += to.Delta.MemHits - from.Delta.MemHits
	t.diskStitch += to.Delta.DiskHits - from.Delta.DiskHits
	t.recompiled += to.Delta.Recompiled - from.Delta.Recompiled
	t.evictions += to.Delta.Evictions - from.Delta.Evictions
	t.diskHits += to.Disk.Hits - from.Disk.Hits
	t.diskMisses += to.Disk.Misses - from.Disk.Misses
	t.diskWrites += to.Disk.Writes - from.Disk.Writes
	t.deduped += to.Server.Deduped - from.Server.Deduped
	t.shed += to.Server.Shed - from.Server.Shed
}

// timed is what the timed phase measured.
type timed struct {
	wall, cpu time.Duration
	ms0, ms1  runtime.MemStats
	peakRSS   float64
	tiers     tierCounts
}

func run(w *workload, seed int64, seconds int, traced bool, work string) (*result, error) {
	m, err := isdl.Parse(machineText)
	if err != nil {
		return nil, err
	}
	progs := make([]string, w.programs)
	for p := range progs {
		progs[p] = bench.MultiBlockSource(seed*1000+int64(p), blocksPerProgram, opsPerBlock)
	}
	mem := map[string]int64{}
	for i, v := range []string{"a", "b", "c", "d"} {
		mem[v] = 1 + (seed*7919+int64(i)*104729)%29
	}
	h := sha256.New()
	var seq []*exchange
	for _, src := range w.sources(progs, seed, seconds*w.perSecond) {
		x := &exchange{src: src, body: requestBody(src)}
		h.Write(x.body)
		seq = append(seq, x)
	}
	hj, _ := json.Marshal(describeHost(work))
	info("host %s", hj)
	info("workload %s seed %d: %d programs x ~%d blocks, 1 closed-loop client, %d timed requests, request sequence sha256 %s",
		w.name, seed, w.programs, blocksPerProgram, len(seq), hex.EncodeToString(h.Sum(nil)))

	// Set-up: a fresh server and disk tier cold-compile the program set
	// one program at a time.
	reps := setupReps
	if traced {
		reps = 1 // a traced run reports no setup_s
	}
	var setupTimes []float64
	var node *servedNode
	setupFailed := 0
	dir := ""
	for k := 0; k < reps; k++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(work, fmt.Sprintf("setup-%d", k))
		runtime.GC()
		t0 := time.Now()
		if node, err = newServer(dir); err != nil {
			return nil, err
		}
		for _, src := range progs {
			if status, body, _ := post(node.h, requestBody(src)); !okResponse(status, body) {
				setupFailed++
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	t, err := serve(w, node, dir, seq)
	if err != nil {
		return nil, err
	}

	// Oracle, outside the timed phase.
	orc := newOracle(m, mem)
	var lats []float64
	var codeSize, cycles int64
	failed, inBand, mismatches, non200, completed := 0, 0, 0, 0, 0
	var coverHits, recompiledBlocks int
	for _, x := range seq {
		lats = append(lats, float64(x.lat)/1e6)
		if x.status != http.StatusOK {
			non200++
			failed++
			continue
		}
		completed++
		var r server.CompileResponse
		if err := json.Unmarshal(x.resp, &r); err != nil || r.Error != "" {
			inBand++
			failed++
			continue
		}
		codeSize += int64(r.CodeSize)
		c, err := orc.check(x.src, r.Assembly)
		if err != nil {
			mismatches++
			failed++
			info("oracle mismatch: %v", err)
			continue
		}
		cycles += int64(c)
		coverHits += r.CacheHits
		recompiledBlocks += r.RecompiledBlocks
	}
	info("timed phase: %d requests in %.3f s; %d non-200, %d in-band errors, %d oracle mismatches; %d set-up requests failed",
		len(seq), t.wall.Seconds(), non200, inBand, mismatches, setupFailed)

	req := float64(len(seq))
	res := &result{Correct: failed == 0 && setupFailed == 0, Attempted: len(seq), Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		p50, _ := percentile(lats, 0.5)
		tailName, tail, beyond := tailPercentile(lats)
		info("latency: %d samples; p50 %.3f ms; %s %.3f ms with %d samples beyond it", len(lats), p50, tailName, tail, beyond)
		info("setup_s samples %v", setupTimes)
		set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
		set("setup_s", median(setupTimes), "s")
		set("latency_p50_ms", p50, "ms")
		set("latency_p95_ms", tail, "ms")
		set("throughput_rps", float64(completed)/t.wall.Seconds(), "1/s")
		set("cpu_ms_per_req", float64(t.cpu)/1e6/req, "ms")
		set("allocs_per_req", float64(t.ms1.Mallocs-t.ms0.Mallocs)/req, "count")
		set("alloc_mb_per_req", float64(t.ms1.TotalAlloc-t.ms0.TotalAlloc)/(1<<20)/req, "MB")
		set("peak_rss_mb", t.peakRSS, "MB")
		set("code_size_instrs", float64(codeSize), "instrs")
		set("run_cycles", float64(cycles), "cycles")
		set("success_frac", 1-float64(failed)/req, "ratio")
		return res, nil
	}

	// Per-layer metrics: counts from the served run, times from the
	// replay.
	tc := t.tiers
	if tc.evictions > 0 {
		return nil, fmt.Errorf("delta engine evicted %d artifacts; the replay mirrors an engine that never evicts", tc.evictions)
	}
	blocks := float64(tc.memStitch + tc.diskStitch + tc.recompiled)
	lm := map[string]float64{
		"delta.mem_stitch_frac":                 ratio(float64(tc.memStitch), blocks),
		"delta.disk_stitch_frac":                ratio(float64(tc.diskStitch), blocks),
		"delta.recompiled_frac":                 ratio(float64(tc.recompiled), blocks),
		"delta.cover_hit_frac":                  ratio(float64(coverHits), float64(recompiledBlocks)),
		"diskcache.hit_frac":                    ratio(float64(tc.diskHits), float64(tc.diskHits+tc.diskMisses)),
		"diskcache.writes_per_recompiled_block": ratio(float64(tc.diskWrites), float64(tc.recompiled)),
		"server.deduped_frac":                   float64(tc.deduped) / req,
		"server.shed_frac":                      float64(tc.shed) / req,
		"gc.cycles_per_req":                     float64(t.ms1.NumGC-t.ms0.NumGC) / req,
		"gc.pause_ms_per_req":                   float64(t.ms1.PauseTotalNs-t.ms0.PauseTotalNs) / 1e6 / req,
	}
	faithful, err := replayAll(w, seed, m, progs, seq, work, lm)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && faithful
	for _, lmd := range layerMetrics {
		v, ok := lm[lmd.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lmd.name)
		}
		res.Metrics[lmd.name] = metric{Value: v, Unit: lmd.unit}
	}
	return res, nil
}

// serve sends the request sequence to node, one request at a time, and
// measures the phase. A restarting workload replaces the server (and
// reopens the disk tier in dir) before every pass over the program set,
// keeping only the final counters of each server it retires.
func serve(w *workload, node *servedNode, dir string, seq []*exchange) (*timed, error) {
	var t timed
	before := node.srv.Stats()
	var retired []server.StatsResponse
	// The set-up peak is not the workload's: return the set-up heap to
	// the system and restart the high-water mark (clear_refs 5).
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		info("cannot reset the peak RSS (%v): peak_rss_mb includes set-up", err)
	}
	runtime.ReadMemStats(&t.ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	// Identical responses share one buffer, so the heap does not grow
	// with the number of responses kept for the oracle.
	seen := make(map[string][]byte)
	nd := node
	for i, x := range seq {
		if w.restart && i%w.programs == 0 {
			if nd != node {
				retired = append(retired, nd.srv.Stats())
			}
			var err error
			if nd, err = newServer(dir); err != nil {
				return nil, err
			}
		}
		x.status, x.resp, x.lat = post(nd.h, x.body)
		if prev, ok := seen[string(x.resp)]; ok {
			x.resp = prev
		} else {
			seen[string(x.resp)] = x.resp
		}
	}
	t.wall = time.Since(t0)
	t.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&t.ms1)
	var err error
	if t.peakRSS, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if nd != node {
		retired = append(retired, nd.srv.Stats())
	}
	t.tiers.add(&before, node.srv.Stats())
	for _, st := range retired {
		t.tiers.add(nil, st)
	}
	return &t, nil
}

func okResponse(status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	var r server.CompileResponse
	return json.Unmarshal(body, &r) == nil && r.Error == "" && r.Assembly != ""
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// percentile is the nearest-rank percentile of xs and the number of
// samples above its rank.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - 1 - rank
}

// tailPercentile returns the highest whole percentile, up to p95, with
// at least ten samples beyond it: its name, value and that sample count.
func tailPercentile(xs []float64) (string, float64, int) {
	p := 95
	for ; p > 50; p-- {
		if _, beyond := percentile(xs, float64(p)/100); beyond >= 10 {
			break
		}
	}
	v, beyond := percentile(xs, float64(p)/100)
	return fmt.Sprintf("p%d", p), v, beyond
}
