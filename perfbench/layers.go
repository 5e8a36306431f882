package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"aviv/internal/isdl"
	"aviv/internal/server"
)

// layerMetrics are the per-layer metrics of a traced run, in report
// order. Times are replay self times (span minus child spans) per
// replayed request; counts and ratios of the tiers come from the served
// run. moves names the end-to-end metric, and the workload, that a
// change in the layer metric should move; on the other workloads it
// should not move.
var layerMetrics = []struct{ name, unit, moves string }{
	{"lang.parse_ms", "ms", "latency_p50_ms, cpu_ms_per_req on warm-rebuild"},
	{"lang.lower_ms", "ms", "latency_p50_ms, cpu_ms_per_req on warm-rebuild"},
	{"opt.optimize_ms", "ms", "latency_p50_ms, cpu_ms_per_req on warm-rebuild"},
	{"opt.ir_nodes_out", "count", "latency_p50_ms, cpu_ms_per_req on warm-rebuild"},
	{"dataflow.liveness_ms", "ms", "latency_p50_ms, cpu_ms_per_req on warm-rebuild"},
	{"delta.compile_self_ms", "ms", "latency on warm-rebuild and edit-loop"},
	{"delta.mem_stitch_frac", "ratio", "latency on warm-rebuild and edit-loop"},
	{"delta.disk_stitch_frac", "ratio", "latency on warm-rebuild and edit-loop"},
	{"delta.recompiled_frac", "ratio", "latency on warm-rebuild and edit-loop"},
	{"delta.cover_hit_frac", "ratio", "keep-or-delete test for cover.Cache on edit-loop"},
	{"cover.search_ms", "ms", "latency on edit-loop"},
	{"cover.assignments_per_block", "count", "latency on edit-loop"},
	{"cover.decode_ms", "ms", "latency on disk-restart"},
	{"sndag.build_ms", "ms", "latency on disk-restart"},
	{"diskcache.get_ms", "ms", "latency on disk-restart"},
	{"diskcache.hit_frac", "ratio", "latency on disk-restart"},
	{"diskcache.put_ms", "ms", "cpu_ms_per_req on edit-loop"},
	{"diskcache.writes_per_recompiled_block", "count", "cpu_ms_per_req on edit-loop"},
	{"diskcache.mb_written_per_req", "MB", "cpu_ms_per_req on edit-loop"},
	{"peephole.ms", "ms", "latency, cpu_ms_per_req on disk-restart"},
	{"peephole.saved_instrs", "instrs", "code_size_instrs on all workloads"},
	{"regalloc.ms", "ms", "latency on disk-restart"},
	{"regalloc.spills", "count", "code_size_instrs on all workloads"},
	{"asm.emit_ms", "ms", "latency on disk-restart"},
	{"asm.layout_ms", "ms", "latency on warm-rebuild"},
	{"asm.print_ms", "ms", "latency on warm-rebuild"},
	{"server.json_ms", "ms", "latency on warm-rebuild"},
	{"server.deduped_frac", "ratio", "throughput_rps on warm-rebuild; 0 while every workload has one client"},
	{"server.shed_frac", "ratio", "success_frac on warm-rebuild; 0 while every workload has one client"},
	{"isdl.parse_ms", "ms", "setup_s on every workload"},
	{"gc.cycles_per_req", "count", "peak_rss_mb, cpu_ms_per_req on every workload"},
	{"gc.pause_ms_per_req", "ms", "peak_rss_mb, cpu_ms_per_req on every workload"},
	{"trace.overhead_frac", "ratio", "none: traced over untraced replay time, minus one"},
}

// spanMetrics maps the per-request self-time metrics to span names.
var spanMetrics = map[string]string{
	"lang.parse_ms":         "lang.Parse",
	"lang.lower_ms":         "lang.Lower",
	"opt.optimize_ms":       "opt.Optimize",
	"dataflow.liveness_ms":  "dataflow.Liveness",
	"delta.compile_self_ms": "delta.Engine.Compile",
	"cover.search_ms":       "cover.CoverBlock",
	"cover.decode_ms":       "cover.DecodeResult",
	"sndag.build_ms":        "sndag.Build",
	"diskcache.get_ms":      "diskcache.Get",
	"diskcache.put_ms":      "diskcache.Put",
	"peephole.ms":           "peephole.Optimize",
	"regalloc.ms":           "regalloc.Allocate",
	"asm.emit_ms":           "asm.EmitBlock",
	"asm.layout_ms":         "aviv.LayoutProgram",
	"asm.print_ms":          "Program.String",
	"server.json_ms":        "json",
}

// replayAll replays the first w.replay timed requests on two fresh
// replayers, each of which first replays the set-up compiles: one
// untraced and one under spans, taking turns request by request so
// drift in the host affects both alike. It fills lm with the per-layer
// metrics and reports whether every replayed program and its block
// outcomes matched what the server sent.
func replayAll(w *workload, seed int64, m *isdl.Machine, progs []string, seq []*exchange, work string, lm map[string]float64) (bool, error) {
	order := seq[:min(w.replay, len(seq))]
	tr := newTracer()
	var pair [2]*replayer
	for i := range pair {
		r, err := newReplayer(m, filepath.Join(work, fmt.Sprintf("replay-%d", i)))
		if err != nil {
			return false, err
		}
		for _, src := range progs {
			if _, _, err := r.serve(requestBody(src)); err != nil {
				return false, fmt.Errorf("replaying set-up: %w", err)
			}
		}
		r.n = replayCounts{}
		pair[i] = r
	}
	pair[1].tr = tr
	var spent [2]time.Duration
	faithful := true
	for i, x := range order {
		tr.req = int32(i)
		for k := range pair {
			// Alternate which replayer goes first, so neither always runs
			// on caches the other warmed.
			j := (i + k) % 2
			r := pair[j]
			if w.restart && i%w.programs == 0 {
				if err := r.restart(); err != nil {
					return false, err
				}
			}
			t0 := time.Now()
			text, out, err := r.serve(x.body)
			spent[j] += time.Since(t0)
			if err != nil {
				return false, fmt.Errorf("replaying request %d: %w", i, err)
			}
			if msg := compareServed(x, text, out); msg != "" {
				faithful = false
				info("replay mismatch on request %d: %s", i, msg)
			}
		}
	}
	plain, traced := spent[0], spent[1]
	r := pair[1]

	k := float64(len(order))
	self := tr.selfTimes()
	for metric, name := range spanMetrics {
		lm[metric] = float64(self[name]) / 1e6 / k
	}
	n := r.n
	lm["opt.ir_nodes_out"] = float64(n.irNodes) / k
	lm["cover.assignments_per_block"] = ratio(float64(n.assignments), float64(n.freshSearches))
	lm["diskcache.mb_written_per_req"] = float64(n.bytesPut) / (1 << 20) / k
	lm["peephole.saved_instrs"] = float64(n.peepSaved) / k
	lm["regalloc.spills"] = float64(n.spills) / k
	lm["trace.overhead_frac"] = float64(traced)/float64(plain) - 1
	lm["isdl.parse_ms"] = isdlParseMs()

	var top []string
	for metric := range spanMetrics {
		top = append(top, metric)
	}
	sort.Slice(top, func(i, j int) bool { return lm[top[i]] > lm[top[j]] })
	info("replay: %.3f ms/request traced, %.3f untraced; largest self times: %s %.3f ms, %s %.3f ms, %s %.3f ms",
		float64(traced)/1e6/k, float64(plain)/1e6/k, top[0], lm[top[0]], top[1], lm[top[1]], top[2], lm[top[2]])

	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return false, err
	}
	info("replayed %d requests; spans written to %s", len(order), path)
	return faithful, nil
}

// compareServed returns why a replayed request differs from the served
// one, or "" when the bytes and the block outcomes agree.
func compareServed(x *exchange, text string, out outcomes) string {
	var r server.CompileResponse
	if err := json.Unmarshal(x.resp, &r); err != nil {
		return "served response unreadable"
	}
	switch {
	case r.Assembly != text:
		return "assembly differs"
	case r.StitchedBlocks != out.Stitched+out.DiskStitched || r.RecompiledBlocks != out.Recompiled:
		return fmt.Sprintf("served %d stitched/%d recompiled, replay %d/%d",
			r.StitchedBlocks, r.RecompiledBlocks, out.Stitched+out.DiskStitched, out.Recompiled)
	case r.CacheHits != out.CoverCacheHits || r.DiskHits != out.CoverDiskHits:
		return fmt.Sprintf("served cover hits %d/%d, replay %d/%d", r.CacheHits, r.DiskHits, out.CoverCacheHits, out.CoverDiskHits)
	}
	return ""
}

// isdlParseMs is the median of five parses of the machine description.
func isdlParseMs() float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := isdl.Parse(machineText); err != nil {
			return 0
		}
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return median(ts)
}
